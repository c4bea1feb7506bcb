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

// Journal is a write-ahead appender. Each record is encoded into a
// buffer the journal owns and written with a single Write call (an
// issue's names frame, when its table changed, rides in the same call),
// so a crash can tear at most the final record — which Recover discards
// as the recovery point. A failed append (error, short write, or failed
// sync) is sticky: every later append returns the same error, forcing
// the caller to abort instead of continuing with a hole in the log.
//
// Appends are serialized by an internal mutex, but the write-ahead
// ordering contract is the caller's: append the issue before launching,
// append the report before delivering it to the scheduler.
type Journal struct {
	mu      sync.Mutex
	w       io.Writer
	f       *os.File
	err     error
	records int
	buf     []byte    // the record being encoded (codec.go)
	bad     error     // what makes it a record the format cannot carry
	names   []string  // the table the last names frame declared
	vals    []float64 // scratch: an issue's Config laid out against its table

	// SyncEach, when set before use, syncs the underlying writer after
	// every append, making records durable against machine crashes, not
	// just process crashes. Off by default: the per-record Write already
	// survives process death, and fsync-per-record costs ~1ms on most
	// filesystems.
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
// committed prefix — the in-memory twin of RecoverFile's append mode,
// used by crash-resume tests. records is the number of records already
// committed, reported by Records().
func ReopenWriter(w io.Writer, records int) *Journal {
	return &Journal{w: w, records: records}
}

// Append writes one record. The first write or sync error is sticky; a
// record the format cannot carry (Validate, the encoder's range checks)
// is the caller's bug and is refused without poisoning the journal.
func (j *Journal) Append(rec Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf, j.bad = j.buf[:0], nil
	switch {
	case rec.Meta != nil:
		j.meta(rec.Meta)
	case rec.Issue != nil:
		j.issue(rec.Issue, nil)
	case rec.Report != nil:
		j.report(rec.Report)
	default:
		j.snapshot(rec.Snap)
	}
	return j.commit()
}

// AppendReport and AppendSnapshot wrap Append.
func (j *Journal) AppendReport(rep Report) error {
	return j.Append(Record{V: Version, Report: &rep})
}

func (j *Journal) AppendSnapshot(snap Snapshot) error {
	return j.Append(Record{V: Version, Snap: &snap})
}

// AppendIssue appends an issue whose configuration the caller holds as a
// dense vector against is.Names — the engine's path: no map is built
// (is.Config stands in only for a nil vals).
func (j *Journal) AppendIssue(is Issue, vals []float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf, j.bad = j.buf[:0], nil
	j.issue(&is, vals)
	return j.commit()
}

// commit writes the encoded record with one Write call.
func (j *Journal) commit() error {
	if err := cmp.Or(j.err, j.bad); err != nil {
		return err
	}
	n, err := j.w.Write(j.buf)
	if err == nil && n < len(j.buf) {
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
		j.records++
	}
	return j.err
}

// Err returns the journal's sticky error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Records returns the number of records successfully appended (including
// the meta record, and including records replayed from disk when the
// journal was opened by RecoverFile).
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Close syncs and closes the underlying file, if any. It returns the
// sticky append error in preference to a close error, so callers that
// only check Close still observe append failures.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
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
