package backend_test

// A resume hands the trial table its replay restored to the executor:
// whole, to one that embeds backend.Trials, and a trial at a time through
// RestoreTrial to any other TrialCheckpointer — a tracing wrapper, say.
// Both paths must restore the same table, none of it changed.

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/searchspace"
	"repro/internal/state"
	"repro/internal/xrand"
)

func handoverPBT() core.Scheduler {
	return core.NewPBT(core.PBTConfig{Space: paritySpace(), RNG: xrand.New(paritySeed), Population: 8, Step: 2, MaxResource: 32, TruncationFrac: 0.25})
}

// handoverObjective checkpoints the resource a trial reached.
func handoverObjective(_ context.Context, cfg map[string]float64, _, to float64, _ interface{}) (float64, interface{}, error) {
	return cfg["momentum"] + 1/to, map[string]float64{"at": to}, nil
}

// forwarding is a TrialCheckpointer that only forwards to the executor it
// wraps, as a tracing wrapper does: a resume restores it trial by trial.
type forwarding struct{ backend.Backend }

func (f forwarding) SnapshotTrials(fn func(int, float64, json.RawMessage)) {
	f.Backend.(backend.TrialCheckpointer).SnapshotTrials(fn)
}

func (f forwarding) RestoreTrial(trial int, resource float64, st json.RawMessage) {
	f.Backend.(backend.TrialCheckpointer).RestoreTrial(trial, resource, st)
}

// changed takes a snapshot of the pool's table and lists the trials it
// streamed.
func changed(pool *exec.Pool) []int {
	var trials []int
	pool.SnapshotTrials(func(trial int, _ float64, _ json.RawMessage) { trials = append(trials, trial) })
	return trials
}

// A PBT journal, whose heirs share their donors' checkpoints, resumed
// into the goroutine pool and into a wrapper of it that only forwards:
// both hold the table the replay restored, and list none of it as
// changed until something changes it. The pool takes the table whole,
// so the resume state keeps none of it; the wrapper is given a copy.
func TestResumeHandoverRestoresThroughEitherPath(t *testing.T) {
	ctx := context.Background()
	var image bytes.Buffer
	journal, err := state.NewWriter(&image, state.Meta{Experiment: "handover", Seed: paritySeed})
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPool(ctx, handoverObjective, 2)
	if _, err := backend.Drive(ctx, handoverPBT(), pool, backend.Options{MaxJobs: 120, Journal: journal, SnapshotEvery: 4}); err != nil {
		t.Fatal(err)
	}
	var tables [2][]state.TrialSnap
	var stats [2]backend.Stats
	for i, path := range []string{"embedded", "forwarded"} {
		scan, err := state.NewScanner(image.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		sched := handoverPBT()
		rs, err := backend.ReplayScan(scan, sched, backend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		restored := backend.TrialSnaps(&rs.Trials)
		pool := exec.NewPool(ctx, handoverObjective, 1)
		var exe backend.Backend = pool
		if path == "forwarded" {
			exe = forwarding{pool}
		}
		backend.NewEngine(exe, nil).AddLane(sched, exe, backend.Options{Resume: rs}, 0, "")
		tables[i], stats[i] = backend.TrialSnaps(&pool.Trials), pool.Stats()
		if !reflect.DeepEqual(tables[i], restored) {
			t.Errorf("%s: the executor holds\n %v\nthe replay restored\n %v", path, tables[i], restored)
		}
		if left := backend.TrialSnaps(&rs.Trials); (path == "embedded") != (len(left) == 0) {
			t.Errorf("%s: the resume state still holds %d trials after the handover", path, len(left))
		}
		if got := changed(pool); len(got) != 0 {
			t.Errorf("%s: the first snapshot after the resume lists restored trials %v", path, got)
		}
		last := tables[i][len(tables[i])-1].Trial
		pool.Commit(last, 99, json.RawMessage(`{"at":99}`))
		if got := changed(pool); !slices.Equal(got, []int{last}) {
			t.Errorf("%s: after a commit of trial %d the snapshot lists %v", path, last, got)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := state.Recover(image.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	heirs := 0
	for _, r := range rec.Records {
		if r.Issue != nil && r.Issue.Inherit >= 0 {
			heirs++
		}
	}
	if !reflect.DeepEqual(tables[0], tables[1]) || stats[0] != stats[1] || stats[0].Trials < 8 || heirs == 0 {
		t.Errorf("the two paths restored %d trials (%+v) and %d (%+v), from a journal of %d heirs",
			len(tables[0]), stats[0], len(tables[1]), stats[1], heirs)
	}
}

// scriptedJournal journals trials one-job trials, each issued and
// reported in turn, and returns the jobs a scheduler must issue to replay
// it.
func scriptedJournal(t *testing.T, trials int) ([]core.Job, *state.Recovered) {
	cfg := searchspace.FromMap(map[string]float64{"lr": 0.5})
	var image bytes.Buffer
	journal, err := state.NewWriter(&image, state.Meta{Experiment: "chunks"})
	if err != nil {
		t.Fatal(err)
	}
	script := make([]core.Job, trials)
	for i := range script {
		script[i] = core.Job{TrialID: i, Config: cfg, TargetResource: 1, InheritFrom: -1}
		err := journal.StageIssue(state.Issue{Trial: i, Target: 1, Inherit: -1, Names: cfg.Names()}, cfg.Values())
		if err == nil {
			err = journal.Append(state.Record{V: state.Version, Report: &state.Report{Trial: i, Loss: 1, Resource: 1, Time: float64(i)}})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	rec, err := state.Recover(image.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return script, rec
}

// A replay cuts the restored table's records from chunks that double
// with it, as RestoreTrial does: twice the trials cost a replay a few
// allocations more, not one more per 64 trials.
func TestResumeHandoverCutsChunksThatDouble(t *testing.T) {
	if backend.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	allocs := func(trials int) float64 {
		script, rec := scriptedJournal(t, trials)
		return testing.AllocsPerRun(3, func() {
			if _, err := backend.Replay(rec, &scripted{jobs: script}, backend.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4096), allocs(8192)
	if large-small > 16 {
		t.Errorf("replaying 4096 trials allocates %v objects, 8192 trials %v: the table grows by more than a few chunks", small, large)
	}
}
