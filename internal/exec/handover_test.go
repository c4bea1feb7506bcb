package exec

import (
	"bytes"
	"context"
	"os"
	"testing"

	"repro/internal/backend"
	"repro/internal/state"
)

// A PBT run cut at a snapshot in its middle, resumed into the goroutine
// pool and into the subprocess pool: each takes the table the replay
// restored whole, and the resumed run continues every trial from it —
// lineageObjective refuses a job whose checkpoint is not the one its
// trial reached its resource with.
func TestResumeHandoverContinuesTheLineage(t *testing.T) {
	ctx := context.Background()
	var image bytes.Buffer
	journal, err := state.NewWriter(&image, state.Meta{Experiment: "handover", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.Drive(ctx, lineagePBT(), NewPool(ctx, lineageObjective, 2), backend.Options{Journal: journal, SnapshotEvery: 2}); err != nil {
		t.Fatal(err)
	}
	scan, err := state.NewScanner(image.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(0)
	for cut < int64(image.Len()/2) && scan.Scan() {
		if scan.Rec.Snap != nil {
			cut = scan.CleanOffset
		}
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	procs, err := NewSubprocess(ctx, exe, nil, []string{"EXEC_TEST_WORKER=1"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(ctx, lineageObjective, 2)
	for name, ex := range map[string]struct {
		backend.Backend
		table *backend.Trials
	}{
		"pool":       {pool, &pool.Trials},
		"subprocess": {procs, &procs.Trials},
	} {
		prefix, err := state.NewScanner(image.Bytes()[:cut])
		if err != nil {
			t.Fatal(err)
		}
		sched := lineagePBT()
		rs, err := backend.ReplayScan(prefix, sched, backend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		restored, trained, replayed := entries(&rs.Trials), 0, rs.Run.IssuedJobs
		for _, ts := range restored {
			if ts.Resource > 0 {
				trained++
			}
		}
		engine := backend.NewEngine(ex.Backend, nil)
		lane := engine.AddLane(sched, ex.Backend, backend.Options{Resume: rs}, 0, "")
		if got := entries(ex.table); !equalTables(got, restored) || trained == 0 {
			t.Errorf("%s: the executor holds\n %s\nthe replay restored\n %s", name, showTable(got), showTable(restored))
		}
		if err := engine.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if run, err := lane.Result(); err != nil || run.IssuedJobs <= replayed || !sched.Done() {
			t.Errorf("%s: the resumed run issued %d jobs past the %d replayed, done %v: %v", name, run.IssuedJobs-replayed, replayed, sched.Done(), err)
		}
	}
}
