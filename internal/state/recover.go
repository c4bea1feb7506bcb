package state

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/wire"
)

// ErrNoMeta is returned by Recover when the journal has no committed
// meta head record — an empty file, or a file torn before the first
// record completed. There is nothing to resume from.
var ErrNoMeta = errors.New("state: journal has no committed meta record")

// ErrFormat is returned by Recover for a file that does not open with
// this build's magic — another format version's journal (v1 JSON-lines
// included) or no journal at all; the error says which.
var ErrFormat = errors.New("state: not a journal this build reads")

// checkMagic sorts a file's first bytes into this format, a torn start
// of it (ErrNoMeta), or something else (ErrFormat, naming it).
func checkMagic(data []byte) error {
	found := fmt.Sprintf("no journal magic (first bytes %q)", data[:min(len(data), len(magic))])
	switch {
	case bytes.HasPrefix(data, magic):
		return nil
	case len(data) < len(magic) && bytes.HasPrefix(magic, data):
		return ErrNoMeta
	case bytes.HasPrefix(data, []byte(magicPrefix)):
		found = fmt.Sprintf("a format-%d journal", data[len(magicPrefix)])
	case data[0] == '{':
		found = "a format-1 (JSON-lines) journal"
	}
	return fmt.Errorf("%w: found %s, this build reads and writes format %d (binary frames)", ErrFormat, found, Version)
}

// Recovered is the committed prefix of a journal.
type Recovered struct {
	// Meta is the head record.
	Meta Meta
	// Records are the committed body records, in append order.
	Records []Record
	// CleanOffset is the byte offset just past the last committed record
	// — the recovery point. Appends must resume here.
	CleanOffset int64
	// Truncated reports that a torn or undecodable tail (or mid-file
	// corruption) was discarded at CleanOffset.
	Truncated bool
}

// Scanner walks a journal image one committed record at a time, without
// building anything per record: Scan decodes into fields the scanner
// owns and overwrites on the next call. A committed record is a whole
// frame whose checksum matches, whose type is known and whose fields
// decode and fill the frame exactly; the scan stops for good at the
// first violation — a torn final write, a flipped bit, a second meta —
// and everything from there on is discarded. A names frame commits with
// the issue frame that must follow it, so the recovery point is always a
// record boundary. The write-ahead ordering makes the discard safe: a
// record that never committed corresponds to an action (launch or
// scheduler report) that never happened.
//
// A file's image is read through a window (ScanFile): a frame is decoded
// where it lies in it, and the next Scan may read over it.
//
// A Scanner never panics on arbitrary input (fuzz_test.go).
type Scanner struct {
	// Meta is the head record.
	Meta Meta
	// Rec is the record the last Scan decoded. Its payload is the
	// scanner's until the next Scan, with three things to know: an
	// issue's Config is nil, its values being Vals, one per name of its
	// Names; a snapshot's Trials is reused, while the checkpoints in it
	// alias a copy of their frame and may be kept; and a checkpoint's
	// Sched aliases the frame where it lies, which nothing may keep past
	// the next Scan.
	Rec  Record
	Vals []float64
	// CleanOffset is the byte offset just past Rec; Truncated, set when
	// Scan returns false, that what is behind it then was discarded: the
	// two are Recovered's.
	CleanOffset int64
	Truncated   bool

	path   string      // of the file ScanFile opened, for Reopen
	f      *os.File    // that file, until Close
	src    io.ReaderAt // what the window is read from; nil for an image in memory
	err    error       // the read that failed, which ends the scan for good
	size   int         // the image's bytes, as of when the scanner was made
	win    []byte      // the bytes at base: the whole image, or a window on it
	buf    []byte      // what a file's window is cut from: the spare, or one made larger
	base   int
	window int // the bytes a read fills the window with, at most
	off    int // just past the last frame read
	start  int // where the record Scan last returned starts
	n      int // records committed so far, the head among them
	r      wire.Reader
	names  []string // the table the last names frame declared

	issue    Issue
	report   Report
	snap     Snapshot
	ckpt     Checkpoint
	ckptVals []float64 // the checkpoint's in-flight configurations, one slab
}

// Mark is a scanner's position between two records.
type Mark struct {
	off, n int
	names  []string
}

// Mark returns the position just past the record Scan last returned, or
// the head before the first Scan.
func (s *Scanner) Mark() Mark { return Mark{off: int(s.CleanOffset), n: s.n, names: s.names} }

// Back returns the position just before the record Scan last returned,
// where Seek goes to read it again — unless it is an issue, whose names
// frame, when it has one, that position would pass over.
func (s *Scanner) Back() Mark { return Mark{off: s.start, n: s.n - 1, names: s.names} }

// Seek returns the scanner to m: Scan goes on to return the records it
// returned from m before, up to the same recovery point.
func (s *Scanner) Seek(m Mark) {
	s.off, s.n, s.names = m.off, m.n, m.names
	s.CleanOffset, s.Truncated = int64(m.off), false
}

// NewScanner reads the head of a journal image. Its errors are ErrFormat
// and, when not even the head record committed, ErrNoMeta.
func NewScanner(data []byte) (*Scanner, error) {
	return (&Scanner{win: data, size: len(data)}).head()
}

// windowSize is what a file-backed scanner reads at a time.
const windowSize = 256 << 10

// head reads the magic and the head record.
func (s *Scanner) head() (*Scanner, error) {
	m := min(s.size, len(magic))
	if len(s.win) < m && !s.fill(0, m) {
		return nil, s.err
	}
	if err := checkMagic(s.win[:m]); err != nil {
		return nil, err
	}
	s.off = len(magic)
	body, ok := s.frame()
	if s.err != nil {
		return nil, s.err
	}
	if !ok || body[0] != typeMeta {
		return nil, ErrNoMeta
	}
	s.n = 1
	s.r.Reset(body[1:])
	s.Meta = Meta{Experiment: s.r.String(), Algo: s.r.String(), Seed: s.r.Uvarint(), Params: s.strings(nil)}
	if s.r.ExpectEOF(); s.r.Err() != nil {
		return nil, ErrNoMeta
	}
	s.off += frameHeader + len(body)
	s.CleanOffset = int64(s.off)
	return s, nil
}

// fill reads the n bytes at off, and what follows them, into the window
// of a file-backed scanner, over what it held: false when the image ends
// before them or the read fails (err). A failed read leaves the window
// empty, so that every later frame fails too.
func (s *Scanner) fill(off, n int) bool {
	if off+n > s.size || s.err != nil {
		return false
	}
	if w := max(min(s.window, s.size), n); cap(s.win) < n {
		if cap(s.buf) < w {
			s.buf = make([]byte, w)
		}
		s.win = s.buf[:w:w]
	}
	s.win = s.win[:min(cap(s.win), s.size-off)]
	if k, err := s.src.ReadAt(s.win, int64(off)); k < len(s.win) {
		s.win, s.err = s.win[:0], fmt.Errorf("state: read journal at offset %d: %w", off+k, cmp.Or(err, io.ErrUnexpectedEOF))
		return false
	}
	s.base = off
	return true
}

// frame is frameAt of the frame at off, read into the window when it is
// not all there.
func (s *Scanner) frame() ([]byte, bool) {
	i := s.off - s.base
	if i < 0 || i+frameHeader > len(s.win) {
		if !s.fill(s.off, frameHeader) {
			return nil, false
		}
		i = 0
	}
	length := binary.LittleEndian.Uint32(s.win[i:])
	if length > MaxFrame {
		return nil, false
	}
	n := frameHeader + int(length)
	if i+n > len(s.win) {
		if !s.fill(s.off, n) {
			return nil, false
		}
		i = 0
	}
	return frameAt(s.win[i:i+n], 0)
}

// Scan decodes the next committed record into Rec, or returns false at
// the recovery point — or where a read failed (Err).
func (s *Scanner) Scan() bool {
	start := s.off
	for tabled := false; ; { // tabled: a names frame was read and its issue not yet
		body, ok := s.frame()
		if !ok {
			break
		}
		s.off += frameHeader + len(body)
		s.r.Reset(body[1:])
		switch typ := body[0]; {
		case typ == typeIssue:
			s.readIssue()
		case tabled:
			s.r.Failf("state: names frame without its issue")
		case typ == typeNames:
			s.readNames()
		case typ == typeReport:
			s.readReport()
		case typ == typeSnap:
			s.r.Reset(bytes.Clone(body[1:])) // its checkpoints alias the cursor's buffer
			s.readSnapshot()
		case typ == typeCheckpoint:
			s.readCheckpoint()
		default: // a second meta, or a type this format does not have
			s.r.Failf("state: frame type %q", typ)
		}
		if s.r.ExpectEOF(); s.r.Err() != nil {
			break
		}
		if tabled = body[0] == typeNames; !tabled {
			s.CleanOffset, s.n, s.start = int64(s.off), s.n+1, start
			return true
		}
	}
	s.off = s.size // nothing behind the recovery point is a frame
	s.Truncated = s.err == nil && s.CleanOffset != int64(s.size)
	return false
}

// Err returns the read that failed, which stopped Scan short of the
// recovery point; nil for an image in memory.
func (s *Scanner) Err() error { return s.err }

// collect scans to the recovery point and returns every record as a
// value of its own. Issue and Report payloads are carved from slabs:
// beyond the config maps, records cost few allocations.
func (s *Scanner) collect() *Recovered {
	// Sized not to regrow: the leanest run's records — two parameters
	// (issue 39 bytes, report 45) and a bare number for a checkpoint (its
	// snapshot entry ~25 a job) — average 60 bytes; wider ones only fewer.
	rec := &Recovered{Meta: s.Meta, Records: make([]Record, 0, s.size/56)}
	var issues []Issue
	var reports []Report
	for s.Scan() {
		r := s.Rec
		switch {
		case r.Issue != nil:
			r.Issue = carve(&issues)
			if *r.Issue = s.issue; len(s.Vals) > 0 {
				r.Issue.Config = make(map[string]float64, len(s.Vals))
				for i, name := range s.names {
					r.Issue.Config[name] = s.Vals[i]
				}
			}
		case r.Report != nil:
			r.Report = carve(&reports)
			*r.Report = s.report
		case r.Snap != nil:
			snap := s.snap
			snap.Trials = append(make([]TrialSnap, 0, len(snap.Trials)), snap.Trials...)
			r.Snap = &snap
		default:
			c := s.ckpt
			c.Series, c.RungCompleted = slices.Clone(c.Series), slices.Clone(c.RungCompleted)
			c.InFlight, c.Sched = slices.Clone(c.InFlight), bytes.Clone(c.Sched)
			for i := range c.InFlight {
				c.InFlight[i].Vals = slices.Clone(c.InFlight[i].Vals)
			}
			r.Checkpoint = &c
		}
		rec.Records = append(rec.Records, r)
	}
	rec.CleanOffset, rec.Truncated = s.CleanOffset, s.Truncated
	return rec
}

// Recover scans a journal image and returns its committed prefix (see
// Scanner for what commits). Its errors are NewScanner's.
func Recover(data []byte) (*Recovered, error) {
	s, err := NewScanner(data)
	if err != nil {
		return nil, err
	}
	return s.collect(), nil
}

// ScanFile opens the journal at path and returns a scanner over the bytes
// it holds, read through a window: windowSize bytes, or one frame when
// that is larger, refilled from the frame the scan has reached, and cut
// from the spare buffer (TakeSpare) when that is large enough. A read
// that fails short of them is an error — ScanFile's, or Err's once Scan
// stops — never a torn tail. Reopen or Close releases the file and the
// window, a failed ScanFile at once.
func ScanFile(path string) (*Scanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("state: read journal: %w", err)
	}
	s := &Scanner{path: path, f: f, src: f, window: windowSize, buf: TakeSpare(windowSize)}
	info, err := f.Stat()
	if err == nil {
		s.size = int(info.Size())
		_, err = s.head()
	}
	if err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("state: %s: %w", path, err)
	}
	return s, nil
}

// Close releases the file ScanFile opened, if Reopen has not, and gives
// its window back (GiveSpare): a Scan after it fails.
func (s *Scanner) Close() error {
	f := s.f
	if f == nil {
		return nil
	}
	GiveSpare(s.buf)
	s.f, s.buf, s.win = nil, nil, nil
	s.err = cmp.Or(s.err, fmt.Errorf("state: read journal %s: %w", s.path, os.ErrClosed))
	return f.Close()
}

// Reopen scans what is left of the file ScanFile opened, closes it,
// truncates any torn tail so the file ends exactly at the recovery point,
// and reopens it for appending. The file is not touched before: whoever
// refuses the journal for what its records say leaves it as it was, and
// so does a failed read, which is no torn tail.
func (s *Scanner) Reopen() (*Journal, error) {
	for s.Scan() {
	}
	if err := cmp.Or(s.Err(), s.Close()); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("state: reopen journal: %w", err)
	}
	if s.Truncated {
		if err := f.Truncate(s.CleanOffset); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("state: truncate torn journal tail: %w", err)
		}
	}
	return &Journal{w: f, f: f, records: s.n, bytes: s.CleanOffset}, nil
}

// RecoverFile recovers the journal at path, truncates any torn tail so
// the file ends exactly at the recovery point, and reopens it for
// appending. The returned Journal continues the same file; the returned
// Recovered prefix is what the caller replays before appending.
func RecoverFile(path string) (*Recovered, *Journal, error) {
	s, err := ScanFile(path)
	if err != nil {
		return nil, nil, err
	}
	rec := s.collect()
	j, err := s.Reopen()
	if err != nil {
		return nil, nil, err
	}
	return rec, j, nil
}
