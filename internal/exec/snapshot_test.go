package exec

// Delta snapshots: SnapshotTrials streams only the trials whose committed
// state changed since the previous call, so a journal's snapshots must
// add up — at every one of them — to the whole table the backend held.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/xrand"
)

// TestMain turns this test binary into a subprocess worker serving
// lineageObjective (EXEC_TEST_WORKER=1), keysObjective (=keys) or
// crashObjective (=crash) when a Subprocess test relaunches it. Every
// worker a test spawns inherits GORACE: a race-detector build otherwise
// sleeps a second at exit.
func TestMain(m *testing.M) {
	obj := map[string]Objective{"1": lineageObjective, "keys": keysObjective, "crash": crashObjective}[os.Getenv("EXEC_TEST_WORKER")]
	if obj != nil {
		if err := Serve(context.Background(), os.Stdin, os.Stdout, obj); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Setenv("GORACE", "atexit_sleep_ms=0")
	os.Exit(m.Run())
}

// lineageObjective checkpoints the resource a trial reached, as decoded
// JSON gives it back, and refuses a checkpoint that is not the resume
// point's: an heir must start from its donor's.
func lineageObjective(_ context.Context, cfg map[string]float64, from, to float64, st interface{}) (float64, interface{}, error) {
	if chk, _ := st.(map[string]interface{}); from != 0 && chk["at"] != from {
		return 0, nil, fmt.Errorf("resumed at %v from checkpoint %v", from, st)
	}
	return math.Hypot(cfg["x"]-0.5, cfg["y"]-0.5) + 1/(1+to), map[string]interface{}{"at": to}, nil
}

func lineagePBT() core.Scheduler {
	return core.NewPBT(core.PBTConfig{Space: execSpace(), RNG: xrand.New(11), Population: 6, Step: 4, MaxResource: 32, TruncationFrac: 0.2})
}

// tableSpy keeps the backend's whole trial table as it stood each time
// the engine took a snapshot of what changed in it.
type tableSpy struct {
	backend.Backend
	table  *backend.Trials
	tables [][]state.TrialSnap
}

func (s *tableSpy) EnableCheckpointSnapshots() {
	if cp, ok := s.Backend.(interface{ EnableCheckpointSnapshots() }); ok {
		cp.EnableCheckpointSnapshots()
	}
}

func (s *tableSpy) SnapshotTrials(fn func(int, float64, json.RawMessage)) {
	s.Backend.(backend.TrialCheckpointer).SnapshotTrials(fn)
	s.tables = append(s.tables, entries(s.table))
}

// entries lists a trial table entry by entry, through Each.
func entries(table *backend.Trials) []state.TrialSnap {
	var list []state.TrialSnap
	table.Each(func(trial int, resource float64, st json.RawMessage) {
		list = append(list, state.TrialSnap{Trial: trial, Resource: resource, State: st})
	})
	return list
}

func (s *tableSpy) RestoreTrial(trial int, resource float64, st json.RawMessage) {
	s.Backend.(backend.TrialCheckpointer).RestoreTrial(trial, resource, st)
}

// A PBT run, whose heirs take a donor's committed state at Launch, ends
// at the first trial to reach R with its other jobs still running: Close
// commits those. Resuming from every snapshot boundary must restore the
// table the uninterrupted run held there — resource and checkpoint bytes
// of every trial — which it does only if every writer of committed state
// lists the trial as changed.
func TestSnapshotsAddUpToTheTrialTable(t *testing.T) {
	ctx := context.Background()
	// Jobs that take a moment overlap: snapshots then fall while an heir
	// is running, holding a state it has only inherited so far.
	pool := NewPool(ctx, func(ctx context.Context, cfg map[string]float64, from, to float64, st interface{}) (float64, interface{}, error) {
		time.Sleep(200 * time.Microsecond)
		return lineageObjective(ctx, cfg, from, to, st)
	}, 3)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	procs, err := NewSubprocess(ctx, exe, nil, []string{"EXEC_TEST_WORKER=1"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, spy := range map[string]*tableSpy{
		"pool":       {Backend: pool, table: &pool.Trials},
		"subprocess": {Backend: procs, table: &procs.Trials},
	} {
		var image bytes.Buffer
		journal, err := state.NewWriter(&image, state.Meta{Experiment: name, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		opt := backend.Options{MaxJobs: 400, MaxResource: 32, StopAtFirstR: true, Journal: journal, SnapshotEvery: 2}
		if _, err := backend.Drive(ctx, lineagePBT(), spy, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Replay, as a resume does, every prefix of the image that ends in
		// a snapshot record.
		scan, err := state.NewScanner(image.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snaps, heirs := 0, 0
		var last *state.Snapshot
		for scan.Scan() {
			if is := scan.Rec.Issue; is != nil && is.Inherit >= 0 {
				heirs++
			}
			if last = scan.Rec.Snap; last == nil {
				continue
			}
			prefix, err := state.NewScanner(image.Bytes()[:scan.CleanOffset])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rs, err := backend.ReplayScan(prefix, lineagePBT(), backend.Options{})
			if err != nil {
				t.Fatalf("%s: replay to snapshot %d: %v", name, snaps, err)
			}
			if got, want := entries(&rs.Trials), spy.tables[snaps]; !equalTables(got, want) {
				t.Errorf("%s: resuming from snapshot %d restores\n %s\nthe run held\n %s", name, snaps, showTable(got), showTable(want))
			}
			snaps++
		}
		if scan.Truncated || last == nil || !last.Final || snaps != len(spy.tables) || snaps < 10 || heirs == 0 {
			t.Errorf("%s: truncated %v, %d snapshot records for %d taken, %d heirs, final %v; the run lost its point", name, scan.Truncated, snaps, len(spy.tables), heirs, last)
		}
	}
}

func equalTables(got, want []state.TrialSnap) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Trial != want[i].Trial || got[i].Resource != want[i].Resource || !bytes.Equal(got[i].State, want[i].State) {
			return false
		}
	}
	return true
}

func showTable(table []state.TrialSnap) string {
	var b bytes.Buffer
	for _, ts := range table {
		fmt.Fprintf(&b, "%d:%v%s ", ts.Trial, ts.Resource, ts.State)
	}
	return b.String()
}
