package state_test

// A file scanner reads through the process's spare buffer: what it
// leaves there for the next scanner, what it gives back on a refusal,
// and two scanners at once.

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/state"
)

// writeJournal writes a journal of trials issued-and-reported trials to
// path and returns its bytes: some 85 bytes a trial.
func writeJournal(t *testing.T, path string, trials int) []byte {
	t.Helper()
	var image bytes.Buffer
	journal, err := state.NewWriter(&image, state.Meta{Experiment: "spare", Seed: windowSeed, Params: []string{"lr", "momentum"}})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"lr", "momentum"}
	for i := 0; i < trials; i++ {
		err := journal.StageIssue(state.Issue{Trial: i, Target: 1, Inherit: -1, Names: names}, []float64{float64(i), 0.5})
		if err == nil {
			err = journal.Stage(state.Record{V: state.Version, Report: &state.Report{Trial: i, Loss: float64(i), Resource: 1, Time: float64(i)}})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := journal.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, image.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return image.Bytes()
}

// scanned is what a scanner reads to its recovery point, one line a
// record.
func scanned(s *state.Scanner) []string {
	var recs []string
	for s.Scan() {
		switch r := s.Rec; {
		case r.Issue != nil:
			recs = append(recs, fmt.Sprintf("issue %+v %v", *r.Issue, s.Vals))
		case r.Report != nil:
			recs = append(recs, fmt.Sprintf("report %+v", *r.Report))
		case r.Snap != nil:
			recs = append(recs, fmt.Sprintf("snap %+v", *r.Snap))
		default:
			recs = append(recs, fmt.Sprintf("checkpoint %+v", *r.Checkpoint))
		}
	}
	return recs
}

// records scans to the recovery point and counts the records, -1 at
// the first that is not the one writeJournal wrote there.
func records(s *state.Scanner) int {
	n := 0
	for ; s.Scan(); n++ {
		is, rep, trial := s.Rec.Issue, s.Rec.Report, n/2
		if is != nil && (n%2 != 0 || is.Trial != trial || len(s.Vals) != 2 || s.Vals[0] != float64(trial)) ||
			rep != nil && (n%2 != 1 || rep.Trial != trial || rep.Time != float64(trial)) || is == nil && rep == nil {
			return -1
		}
	}
	return n
}

// A small torn journal scanned through the window a large one left in the
// spare reads as its own bytes do in memory: nothing of the large one
// behind its end. Close gives the window back and leaves the scanner
// none to read.
func TestScanWindowLeaksNothing(t *testing.T) {
	dir := t.TempDir()
	large := filepath.Join(dir, "large.journal")
	if image := writeJournal(t, large, 4000); len(image) < state.WindowSize {
		t.Fatalf("a %d-byte journal does not fill a %d-byte window", len(image), state.WindowSize)
	}
	s, err := state.ScanFile(large)
	if err != nil {
		t.Fatal(err)
	}
	if n := records(s); n != 8000 || s.Err() != nil {
		t.Fatalf("scanned %d records of 8000 (%v)", n, s.Err())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.WindowCap() != 0 || state.SpareCap() < state.WindowSize {
		t.Fatalf("after Close the scanner holds a %d-byte window and the spare %d bytes", s.WindowCap(), state.SpareCap())
	}
	if s.Scan() || s.Err() == nil {
		t.Fatalf("a Scan after Close read on (err %v)", s.Err())
	}

	small := filepath.Join(dir, "small.journal")
	image := writeJournal(t, small, 40)
	torn := image[:len(image)-3] // the last report, torn mid-frame
	if err := os.WriteFile(small, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = state.ScanFile(small)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if state.SpareCap() != 0 {
		t.Fatalf("the scanner did not borrow the spare's %d bytes", state.SpareCap())
	}
	mem, err := state.NewScanner(torn)
	if err != nil {
		t.Fatal(err)
	}
	got, want := scanned(s), scanned(mem)
	if !slices.Equal(got, want) || s.CleanOffset != mem.CleanOffset || s.Truncated != mem.Truncated || !s.Truncated || s.Err() != nil {
		t.Fatalf("through the lent window: %d records to offset %d, truncated %v (%v); in memory %d to %d, truncated %v",
			len(got), s.CleanOffset, s.Truncated, s.Err(), len(want), mem.CleanOffset, mem.Truncated)
	}
}

// A journal ScanFile refuses gives the spare back at once.
func TestScanWindowRefusalGivesTheSpareBack(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.journal")
	image := writeJournal(t, good, 4000)
	s, err := state.ScanFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{
		"foreign magic": []byte(`{"v":1,"meta":{}}` + "\n"),
		"no meta":       image[:8+5],
	} {
		path := filepath.Join(dir, "refused.journal")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := state.ScanFile(path); err == nil {
			t.Fatalf("%s: ScanFile accepted it", name)
		}
		if state.SpareCap() < state.WindowSize {
			t.Fatalf("%s: after the refusal the spare holds %d bytes", name, state.SpareCap())
		}
		s, err := state.ScanFile(good)
		if err != nil {
			t.Fatal(err)
		}
		if n := records(s); n != 8000 || state.SpareCap() != 0 {
			t.Errorf("%s: then a journal scans %d records of 8000, the spare %d bytes while it is lent", name, n, state.SpareCap())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Two scanners at once: one borrows the spare, the other makes its own
// window.
func TestScanWindowTwoAtOnce(t *testing.T) {
	dir := t.TempDir()
	var paths [2]string
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("%d.journal", i))
		writeJournal(t, paths[i], 3500+500*i)
	}
	var wg sync.WaitGroup
	var got [2]int
	var errs [2]error
	for i := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := state.ScanFile(paths[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = records(s)
			errs[i] = cmp.Or(s.Err(), s.Close())
		}()
	}
	wg.Wait()
	for i := range paths {
		if want := 2 * (3500 + 500*i); errs[i] != nil || got[i] != want {
			t.Errorf("journal %d: scanned %d records, want %d (%v)", i, got[i], want, errs[i])
		}
	}
}
