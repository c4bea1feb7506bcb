package state

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"sync"
)

// syncer is the optional durability hook of a journal's writer: *os.File,
// or a fault-injection test simulating fsync failures.
type syncer interface {
	Sync() error
}

// Journal is a write-ahead appender with group commit. A record is
// encoded into a buffer the journal owns (an issue's names frame, when
// its table changed, goes in with it); Flush writes everything encoded
// since the previous flush with a single Write call, so a crash can tear
// at most the last frame of the last flush — which Recover discards,
// keeping the committed prefix of that flush. The Append methods encode
// one record and flush it. A failed flush (error, short write, or failed
// sync) is sticky: every later call returns the same error, forcing the
// caller to abort instead of continuing with a hole in the log.
//
// Calls are serialized by an internal mutex, but the write-ahead
// ordering contract is the caller's: flush the issue before launching,
// flush the report before delivering it to the scheduler.
type Journal struct {
	mu      sync.Mutex
	encoder // the staged records' frames (codec.go)
	w       io.Writer
	f       *os.File
	err     error
	records int       // committed: written by a flush that succeeded
	bytes   int64     // the bytes of the committed records, head included
	staged  int       // encoded in buf, waiting for the next flush
	names   []string  // the table the last names frame declared
	vals    []float64 // scratch: an issue's Config laid out against its table

	// SyncEach, when set before use, syncs the underlying writer after
	// every flush, making records durable against machine crashes, not
	// just process crashes. Off by default: a flushed record already
	// survives process death, and an fsync costs ~1ms on most filesystems.
	SyncEach bool
}

// Create creates (or truncates) the journal file at path and writes its
// meta head record.
func Create(path string, meta Meta) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("state: create journal: %w", err)
	}
	j := &Journal{w: f, f: f}
	if err := j.Append(Record{V: Version, Meta: &meta}); err != nil {
		_ = f.Close()
		return nil, err
	}
	return j, nil
}

// NewWriter starts a journal on an arbitrary writer (an in-memory buffer
// in tests, a fault-injecting writer in crash tests) and writes its meta
// head record. If w implements Sync() error it is used for SyncEach.
func NewWriter(w io.Writer, meta Meta) (*Journal, error) {
	j := &Journal{w: w}
	if err := j.Append(Record{V: Version, Meta: &meta}); err != nil {
		return nil, err
	}
	return j, nil
}

// ReopenWriter continues a journal on a writer that already holds its
// committed prefix — the in-memory twin of Scanner.Reopen,
// used by crash-resume tests. records is the number of records already
// committed, reported by Records().
func ReopenWriter(w io.Writer, records int) *Journal {
	return &Journal{w: w, records: records}
}

// Append stages one record and flushes it (with anything staged before
// it).
func (j *Journal) Append(rec Record) error {
	if err := j.Stage(rec); err != nil {
		return err
	}
	return j.Flush()
}

// AppendSnapshot appends one snapshot record.
func (j *Journal) AppendSnapshot(snap Snapshot) error {
	return j.Append(Record{V: Version, Snap: &snap})
}

// Stage encodes one record for the next Flush. A record the format
// cannot carry (Validate, the encoder's range checks) is the caller's bug
// and is refused without poisoning the journal.
func (j *Journal) Stage(rec Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	at := len(j.buf)
	switch {
	case rec.Meta != nil:
		j.meta(rec.Meta)
	case rec.Issue != nil:
		j.issue(rec.Issue, nil)
	case rec.Report != nil:
		j.report(rec.Report)
	case rec.Snap != nil:
		j.snapshot(rec.Snap)
	default:
		j.checkpoint(rec.Checkpoint, nil)
	}
	return j.stage(at)
}

// StageIssue stages an issue whose configuration the caller holds as a
// dense vector against is.Names — the engine's path: no map is built
// (is.Config stands in only for a nil vals).
func (j *Journal) StageIssue(is Issue, vals []float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	at := len(j.buf)
	j.issue(&is, vals)
	return j.stage(at)
}

// stage counts the record encoded from offset at of the buffer as
// staged, or, when the journal has failed or the format cannot carry the
// record, drops its bytes: nothing of a refused record reaches the file.
func (j *Journal) stage(at int) error {
	if err := cmp.Or(j.err, j.bad); err != nil {
		j.buf, j.bad = j.buf[:at], nil
		return err
	}
	j.staged++
	return nil
}

// Flush commits the staged records with one Write call, and one sync
// under SyncEach. The first write or sync error is sticky; with nothing
// staged Flush only returns it.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flush()
}

func (j *Journal) flush() error {
	if j.err != nil || j.staged == 0 {
		return j.err
	}
	j.write(j.buf, j.staged)
	j.buf, j.staged = j.buf[:0], 0
	return j.err
}

// write commits frames, which hold records records, with one Write call
// and one sync under SyncEach; a failure is sticky.
func (j *Journal) write(frames []byte, records int) {
	n, err := j.w.Write(frames)
	if err == nil && n < len(frames) {
		err = io.ErrShortWrite
	}
	if s, ok := j.w.(syncer); err != nil {
		j.err = fmt.Errorf("state: journal append: %w", err)
	} else if ok && j.SyncEach {
		if err := s.Sync(); err != nil {
			j.err = fmt.Errorf("state: journal sync: %w", err)
		}
	}
	if j.err == nil {
		j.records += records
		j.bytes += int64(len(frames))
	}
}

// AppendCheckpoint commits a checkpoint whose scheduler image is what
// sched appends, and the snapshot behind it, with one Write — after a
// flush of whatever is staged — and returns the checkpoint frame's size.
// The frames are encoded into *scratch, a buffer the caller owns, may
// share among journals and gets back grown: a checkpoint is as large as
// the scheduler's state, and the journal's own buffer, which lives as
// long as the journal, never holds one. A scheduler that appends nothing
// has no image to checkpoint: the snapshot goes alone, and the size is 0.
func (j *Journal) AppendCheckpoint(scratch *[]byte, c *Checkpoint, sched func([]byte) []byte, snap *Snapshot) (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.flush(); err != nil {
		return 0, err
	}
	e := encoder{buf: (*scratch)[:0]}
	e.checkpoint(c, sched)
	size, records := int64(len(e.buf)), 2
	if e.bad == errNoImage {
		e.buf, e.bad, size, records = e.buf[:0], nil, 0, 1
	}
	e.snapshot(snap)
	if *scratch = e.buf; e.bad != nil {
		return 0, e.bad
	}
	j.write(e.buf, records)
	return size, j.err
}

// spare is the process's one spare buffer, which an engine encodes its
// checkpoints into and a file scanner reads through, each handing it to
// the next when done: a process that resumes or runs one journaled
// experiment after another does not grow a third-of-a-megabyte buffer
// afresh for each. A sync.Pool would drop it at the next collection; this
// keeps the largest one up to 1 MiB, the image of a ~50 000-job ASHA
// run, so that one large run does not pin its image for good.
var spare struct {
	sync.Mutex
	buf []byte
}

// TakeSpare takes the spare, emptied, if it holds size bytes; nil if not,
// or if it is lent. It is the taker's until GiveSpare.
func TakeSpare(size int) (buf []byte) {
	spare.Lock()
	if cap(spare.buf) >= size {
		buf, spare.buf = spare.buf[:0], nil
	}
	spare.Unlock()
	return buf
}

// GiveSpare offers buf as the spare, kept if larger than the one held.
func GiveSpare(buf []byte) {
	spare.Lock()
	if cap(buf) > cap(spare.buf) && cap(buf) <= 1<<20 {
		spare.buf = buf[:0]
	}
	spare.Unlock()
}

// Records returns the number of records committed — staged records count
// once their flush succeeded — including the meta record, and including
// records scanned from disk when the journal was opened by Scanner.Reopen.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Bytes returns the size of the committed records, counted as Records
// counts them; a journal continued by ReopenWriter counts from zero.
func (j *Journal) Bytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes
}

// Close flushes what is still staged, then syncs and closes the
// underlying file, if any. It returns the sticky error in preference to a
// close error, so callers that only check Close still observe append
// failures — a journal that has failed refuses its staged records too.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.flush() // a failure is sticky: returned below
	var closeErr error
	if j.f != nil {
		if err := j.f.Sync(); err != nil && j.err == nil {
			j.err = fmt.Errorf("state: journal sync on close: %w", err)
		}
		closeErr = j.f.Close()
		j.f = nil
		j.w = nil
	}
	if j.err != nil {
		return j.err
	}
	return closeErr
}
