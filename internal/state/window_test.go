package state_test

// A journal file read through the scanner's window: what the window grows
// to, and a read that fails, which no resume may take for a torn tail.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/searchspace"
	"repro/internal/state"
	"repro/internal/xrand"
)

const windowSeed = 5

func windowSpace() *searchspace.Space {
	return searchspace.New(
		searchspace.Param{Name: "lr", Type: searchspace.LogUniform, Lo: 1e-4, Hi: 1},
		searchspace.Param{Name: "momentum", Type: searchspace.Uniform, Lo: 0, Hi: 1},
	)
}

func windowScheduler() core.Scheduler {
	return core.NewASHA(core.ASHAConfig{Space: windowSpace(), RNG: xrand.New(windowSeed), Eta: 4, MinResource: 1, MaxResource: 256})
}

// journalFile journals an ASHA run of jobs jobs to a file and returns its
// path and bytes: issue, report and snapshot records, and checkpoints
// that grow with the run.
func journalFile(t *testing.T, jobs int) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	journal, err := state.Create(path, state.Meta{Experiment: "window", Seed: windowSeed})
	if err != nil {
		t.Fatal(err)
	}
	objective := func(_ context.Context, cfg map[string]float64, _, to float64, _ interface{}) (float64, interface{}, error) {
		loss := cfg["momentum"] + 1/to
		return loss, loss, nil
	}
	ctx := context.Background()
	run, err := backend.Drive(ctx, windowScheduler(), exec.NewPool(ctx, objective, 1), backend.Options{MaxJobs: jobs, Journal: journal})
	if err == nil {
		err = journal.Close()
	}
	if err != nil || run.CompletedJobs != jobs {
		t.Fatalf("journaling %d jobs: %v", jobs, err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, image
}

// frames returns where each frame of a whole journal image starts, its
// type and its size, header included.
func frames(image []byte) (starts []int, types []byte, sizes []int) {
	const magic, header = 8, 8
	for off := magic; off < len(image); {
		n := header + int(binary.LittleEndian.Uint32(image[off:]))
		starts, types, sizes = append(starts, off), append(types, image[off+header]), append(sizes, n)
		off += n
	}
	return starts, types, sizes
}

// Scanning a 15 000-job journal leaves the window no larger than the
// window size or, past it, the largest frame: never the file.
func TestWindowHoldsOneFrame(t *testing.T) {
	path, image := journalFile(t, 15_000)
	_, _, sizes := frames(image)
	largest := 0
	for _, n := range sizes {
		largest = max(largest, n)
	}
	if largest <= state.WindowSize || len(image) < 4*state.WindowSize {
		t.Fatalf("a %d-byte journal whose largest frame is %d bytes does not outgrow a %d-byte window", len(image), largest, state.WindowSize)
	}
	s, err := state.ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	for ; s.Scan(); n++ {
	}
	rec, err := state.Recover(image)
	if err != nil || s.Err() != nil || n != len(rec.Records) || s.CleanOffset != int64(len(image)) || s.Truncated {
		t.Fatalf("scanned %d records to offset %d of %d (truncated %v, %v); Recover collected %d (%v)",
			n, s.CleanOffset, len(image), s.Truncated, s.Err(), len(rec.Records), err)
	}
	if got := s.WindowCap(); got > max(state.WindowSize, largest) {
		t.Fatalf("the window holds %d bytes; the window size is %d and the largest frame %d", got, state.WindowSize, largest)
	}
}

// failing reads through r, except that a read of the byte at fails there
// once it has been read skip times.
type failing struct {
	r        io.ReaderAt
	at       int64
	skip     int
	attempts int
}

var errInjected = errors.New("injected read failure")

func (f *failing) ReadAt(p []byte, off int64) (int, error) {
	if off > f.at || off+int64(len(p)) <= f.at {
		return f.r.ReadAt(p, off)
	}
	if f.attempts++; f.attempts <= f.skip {
		return f.r.ReadAt(p, off)
	}
	n := 0
	if off < f.at {
		n, _ = f.r.ReadAt(p[:f.at-off], off)
	}
	return n, errInjected
}

// A read that fails is not a torn tail: the resume that meets one fails,
// naming the offset, and leaves the journal as it was — its torn tail
// too, which an accepted resume would cut. The reads fail in the head,
// mid-file, inside the last checkpoint on the pass that validates it, and
// there again on the pass that restores from it.
func TestReadFailureIsNotATornTail(t *testing.T) {
	path, image := journalFile(t, 6_000)
	starts, types, sizes := frames(image)
	last := -1
	for i, typ := range types {
		if typ == 'C' {
			last = i
		}
	}
	if last < 0 || starts[last] < 2*state.WindowSize {
		t.Fatalf("the journal's last checkpoint is frame %d; want one behind the first window", last)
	}
	torn := append(image[:len(image):len(image)], image[starts[1]:starts[1]+5]...) // a torn frame header behind the last record
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	inCkpt := int64(starts[last] + sizes[last]/2)
	for _, c := range []struct {
		name string
		at   int64
		skip int
	}{
		{"head", 20, 0},
		{"mid-file", int64(len(image) / 2), 0},
		{"checkpoint", inCkpt, 0},
		{"checkpoint read again", inCkpt, 1},
	} {
		f := &failing{at: c.at, skip: c.skip}
		s, err := state.ScanFileThrough(path, func(r io.ReaderAt) io.ReaderAt { f.r = r; return f })
		if err == nil {
			_, err = backend.ReplayScan(s, windowScheduler(), backend.Options{})
			if _, rerr := s.Reopen(); !errors.Is(rerr, errInjected) {
				t.Errorf("%s: Reopen after a failed read returned %v", c.name, rerr)
			}
		}
		if want := fmt.Sprintf("offset %d", c.at); !errors.Is(err, errInjected) || !strings.Contains(err.Error(), want) || f.attempts != c.skip+1 {
			t.Errorf("%s: the resume returned %v after %d reads of byte %d, want the injected failure at %s on read %d",
				c.name, err, f.attempts, c.at, want, c.skip+1)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, torn) {
			t.Fatalf("%s: the journal changed: %d bytes, was %d (%v)", c.name, len(got), len(torn), err)
		}
	}
	// Read whole, the same journal resumes, and its torn tail is cut.
	s, err := state.ScanFile(path)
	if err == nil {
		_, err = backend.ReplayScan(s, windowScheduler(), backend.Options{})
	}
	if err == nil {
		var j *state.Journal
		if j, err = s.Reopen(); err == nil {
			err = j.Close()
		}
	}
	if got, rerr := os.ReadFile(path); err != nil || rerr != nil || !bytes.Equal(got, image) {
		t.Fatalf("the resume without a failed read: %v; the journal is %d bytes, want %d", err, len(got), len(image))
	}
}
