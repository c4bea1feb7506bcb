package state

import (
	"bytes"
	"errors"
	"fmt"
	"os"
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

// Recover scans a journal image and returns its committed prefix. A
// committed record is a whole frame whose checksum matches, whose type
// is known and whose fields decode and fill the frame exactly; the scan
// stops at the first violation — a torn final write, a flipped bit, a
// second meta — and discards everything from there on. A names frame
// commits with the issue frame that must follow it, so the recovery
// point is always a record boundary. The write-ahead ordering makes the
// discard safe: a record that never committed corresponds to an action
// (launch or scheduler report) that never happened.
//
// Recover never panics on arbitrary input (fuzz_test.go). Its errors are
// ErrFormat and, when not even the head record committed, ErrNoMeta.
func Recover(data []byte) (*Recovered, error) {
	if err := checkMagic(data); err != nil {
		return nil, err
	}
	var d decoder
	off := len(magic)
	body, ok := frameAt(data, off)
	if !ok || body[0] != typeMeta {
		return nil, ErrNoMeta
	}
	d.r.Reset(body[1:])
	// Sized not to regrow: the leanest run's records — two parameters
	// (issue 39 bytes, report 45) and a bare number for a checkpoint (its
	// snapshot entry ~25 a job) — average 60 bytes; wider ones only fewer.
	rec := &Recovered{Records: make([]Record, 0, len(data)/56),
		Meta: Meta{Experiment: d.r.String(), Algo: d.r.String(), Seed: d.r.Uvarint(), Params: d.strings()}}
	if d.r.ExpectEOF(); d.r.Err() != nil {
		return nil, ErrNoMeta
	}
	off += frameHeader + len(body)
	rec.CleanOffset = int64(off)
	tabled := false // a names frame was read and its issue not yet
	for {
		if body, ok = frameAt(data, off); !ok {
			break
		}
		off += frameHeader + len(body)
		d.r.Reset(body[1:])
		r := Record{V: Version}
		switch typ := body[0]; {
		case typ == typeIssue:
			r.Issue = d.issue()
		case tabled:
			d.r.Failf("state: names frame without its issue")
		case typ == typeNames:
			was := len(d.names)
			if d.names = d.strings(); was+len(d.names) == 0 {
				d.r.Failf("state: names frame declares no names over none") // the encoder never does
			}
		case typ == typeReport:
			r.Report = d.report()
		case typ == typeSnap:
			d.r.Reset(bytes.Clone(body[1:])) // its checkpoints alias the cursor's buffer
			r.Snap = d.snapshot()
		default: // a second meta, or a type this format does not have
			d.r.Failf("state: frame type %q", typ)
		}
		if d.r.ExpectEOF(); d.r.Err() != nil {
			break
		}
		if tabled = body[0] == typeNames; tabled {
			continue
		}
		rec.Records = append(rec.Records, r)
		rec.CleanOffset = int64(off)
	}
	rec.Truncated = rec.CleanOffset != int64(len(data))
	return rec, nil
}

// RecoverFile recovers the journal at path, truncates any torn tail so
// the file ends exactly at the recovery point, and reopens it for
// appending. The returned Journal continues the same file; the returned
// Recovered prefix is what the caller replays before appending.
func RecoverFile(path string) (*Recovered, *Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("state: read journal: %w", err)
	}
	rec, err := Recover(data)
	if err != nil {
		return nil, nil, fmt.Errorf("state: %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("state: reopen journal: %w", err)
	}
	if rec.Truncated {
		if err := f.Truncate(rec.CleanOffset); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("state: truncate torn journal tail: %w", err)
		}
	}
	j := &Journal{w: f, f: f, records: 1 + len(rec.Records)}
	return rec, j, nil
}
