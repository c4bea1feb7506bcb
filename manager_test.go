package asha

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/state"
)

func managerSpace() *Space {
	return NewSpace(Uniform("x", 0, 1), Uniform("y", 0, 1))
}

func managerObjective(delay time.Duration) Objective {
	return func(_ context.Context, cfg Config, from, to float64, state interface{}) (float64, interface{}, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		floor := math.Hypot(cfg["x"]-0.7, cfg["y"]-0.2)
		loss := floor + math.Exp(-to/8)
		return loss, loss, nil
	}
}

func TestManagerRunsExperimentsToBudget(t *testing.T) {
	m := NewManager(WithManagerWorkers(4))
	algos := map[string]Algorithm{
		"asha":   ASHA{Eta: 3, MinResource: 1, MaxResource: 27},
		"random": RandomSearch{MaxResource: 27},
		"sha":    SHA{N: 9, Eta: 3, MinResource: 1, MaxResource: 27},
	}
	for name, algo := range algos {
		if err := m.Add(Experiment{
			Name: name, Space: managerSpace(), Objective: managerObjective(0),
			Algorithm: algo, Seed: 2, MaxJobs: 60,
		}); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for name, res := range results {
		if res.CompletedJobs != 60 {
			t.Fatalf("%s completed %d jobs, want 60", name, res.CompletedJobs)
		}
		if res.BestLoss > 1 {
			t.Fatalf("%s found only %v", name, res.BestLoss)
		}
	}
}

func TestManagerFairShare(t *testing.T) {
	// Two equal experiments share four workers. Fair-share assigns free
	// slots to the experiment with the fewest in flight, so neither can
	// starve: each must own roughly half of the early completions.
	const perExp = 120
	var mu [2]int64
	m := NewManager(WithManagerWorkers(4))
	var order []string
	m2 := WithManagerProgress(func(p ExperimentProgress) {
		order = append(order, p.Experiment)
	})
	m2(m)
	for i, name := range []string{"a", "b"} {
		i := i
		obj := func(ctx context.Context, cfg Config, from, to float64, state interface{}) (float64, interface{}, error) {
			atomic.AddInt64(&mu[i], 1)
			time.Sleep(200 * time.Microsecond)
			return 1 / (1 + to), to, nil
		}
		if err := m.Add(Experiment{
			Name: name, Space: managerSpace(), Objective: obj,
			Algorithm: RandomSearch{MaxResource: 4}, Seed: uint64(i + 1), MaxJobs: perExp,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2*perExp {
		t.Fatalf("saw %d completions, want %d", len(order), 2*perExp)
	}
	half := order[:perExp]
	counts := map[string]int{}
	for _, n := range half {
		counts[n]++
	}
	for _, name := range []string{"a", "b"} {
		if counts[name] < perExp/4 {
			t.Fatalf("experiment %q starved: only %d of the first %d completions (counts=%v)",
				name, counts[name], perExp, counts)
		}
	}
}

func TestManagerFailureIsolation(t *testing.T) {
	// One experiment's objective blows up; the others must finish their
	// budgets and the error must name the culprit.
	boom := errors.New("boom")
	var calls int64
	m := NewManager(WithManagerWorkers(3))
	if err := m.Add(Experiment{
		Name: "bad", Space: managerSpace(),
		Objective: func(context.Context, Config, float64, float64, interface{}) (float64, interface{}, error) {
			if atomic.AddInt64(&calls, 1) > 5 {
				return 0, nil, boom
			}
			return 1, nil, nil
		},
		Algorithm: RandomSearch{MaxResource: 4}, MaxJobs: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Experiment{
		Name: "good", Space: managerSpace(), Objective: managerObjective(0),
		Algorithm: RandomSearch{MaxResource: 4}, MaxJobs: 40,
	}); err != nil {
		t.Fatal(err)
	}
	results, err := m.Run(context.Background())
	if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("expected a named error wrapping boom, got %v", err)
	}
	if _, ok := results["bad"]; ok {
		t.Fatal("failed experiment leaked into results")
	}
	good, ok := results["good"]
	if !ok {
		t.Fatal("healthy experiment missing from results")
	}
	if good.CompletedJobs != 40 {
		t.Fatalf("healthy experiment completed %d jobs, want 40", good.CompletedJobs)
	}
}

func TestManagerContextCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var completed int64
	m := NewManager(WithManagerWorkers(2), WithManagerProgress(func(p ExperimentProgress) {
		if atomic.AddInt64(&completed, 1) >= 10 {
			cancel()
		}
	}))
	if err := m.Add(Experiment{
		Name: "open-ended", Space: managerSpace(), Objective: managerObjective(time.Millisecond),
		Algorithm: ASHA{Eta: 2, MinResource: 1, MaxResource: 64},
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = m.Run(ctx)
	}()
	select {
	case <-done:
		if runErr != nil {
			t.Fatalf("cancel should end the run cleanly, got %v", runErr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("manager did not stop after cancellation")
	}
}

func TestManagerValidation(t *testing.T) {
	m := NewManager()
	if err := m.Add(Experiment{Name: "", Space: managerSpace(), Objective: managerObjective(0), Algorithm: RandomSearch{MaxResource: 1}}); err == nil {
		t.Fatal("empty name accepted")
	}
	ok := Experiment{Name: "dup", Space: managerSpace(), Objective: managerObjective(0), Algorithm: RandomSearch{MaxResource: 1}, MaxJobs: 1}
	if err := m.Add(ok); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(ok); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := m.Add(Experiment{Name: "nospace", Objective: managerObjective(0), Algorithm: RandomSearch{MaxResource: 1}}); err == nil {
		t.Fatal("nil space accepted")
	}
	unbounded := NewManager()
	if err := unbounded.Add(Experiment{Name: "e", Space: managerSpace(), Objective: managerObjective(0), Algorithm: ASHA{Eta: 2, MinResource: 1, MaxResource: 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := unbounded.Run(context.Background()); err == nil {
		t.Fatal("unbounded manager run accepted")
	}
	negative := NewManager()
	if err := negative.Add(Experiment{Name: "e", Space: managerSpace(), Objective: managerObjective(0), Algorithm: RandomSearch{MaxResource: 1}, MaxJobs: -1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := negative.Run(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("negative MaxJobs accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a manager with a negative MaxJobs is still running after 5s, want a refusal")
	}
}

// TestManagerRemoteFleet runs two named experiments over a worker fleet
// connected to the manager's embedded lease server: jobs carry their
// experiment's name, and each worker routes them to the matching
// objective via RemoteWorker.Objectives. One worker is present from the
// start; a second joins mid-run (the fleet is elastic).
func TestManagerRemoteFleet(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The second worker joins once the first has demonstrably done work
	// (a completion reached the manager) — a guaranteed mid-run join,
	// with no timer guessing at how far along the run is.
	firstDone := make(chan struct{})
	var once sync.Once
	workers := func(url string) {
		w := RemoteWorker{
			Server: url, Token: "mgr-secret", Slots: 2,
			Objectives: map[string]Objective{
				"alpha": managerObjective(0),
				"beta":  managerObjective(0),
			},
		}
		go func() { _ = ServeRemoteWorker(ctx, w) }()
		go func() {
			<-firstDone
			_ = ServeRemoteWorker(ctx, w)
		}()
	}
	m := NewManager(
		WithManagerWorkers(4),
		WithManagerRemote(Remote{Token: "mgr-secret", OnListen: workers}),
		WithManagerProgress(func(ExperimentProgress) { once.Do(func() { close(firstDone) }) }),
	)
	for _, name := range []string{"alpha", "beta"} {
		// Objectives are nil: in fleet mode they run worker-side.
		if err := m.Add(Experiment{
			Name: name, Space: managerSpace(),
			Algorithm: ASHA{Eta: 3, MinResource: 1, MaxResource: 27},
			Seed:      4, MaxJobs: 50,
		}); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for name, res := range results {
		if res.CompletedJobs != 50 {
			t.Fatalf("%s completed %d jobs, want 50", name, res.CompletedJobs)
		}
		if res.BestLoss > 1 {
			t.Fatalf("%s found only %v", name, res.BestLoss)
		}
	}
}

// TestManagerRaisedBudgetShutdown raises the worker budget far past its
// starting value through the admin API and then cancels the run. The
// shutdown flushes every queued job back as a failed outcome at once;
// the completion queue must take them all without blocking, however
// small the budget the run started with. A second run checks that a
// raise with a worker attached still completes the full budget.
func TestManagerRaisedBudgetShutdown(t *testing.T) {
	const token = "raise-admin"
	start := func(ctx context.Context, maxJobs int, worker bool) (string, chan error, *map[string]*Result) {
		urls := make(chan string, 1)
		m := NewManager(WithManagerWorkers(1), WithManagerRemote(Remote{
			AdminToken: token,
			LeaseTTL:   60 * time.Second,
			OnListen: func(url string) {
				urls <- url
				if worker {
					go func() {
						_ = ServeRemoteWorker(ctx, RemoteWorker{Server: url, Slots: 8, Objective: managerObjective(0)})
					}()
				}
			},
		}))
		if err := m.Add(Experiment{
			Name: "wide", Space: managerSpace(),
			Algorithm: RandomSearch{MaxResource: 4}, MaxJobs: maxJobs,
		}); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		results := new(map[string]*Result)
		go func() {
			res, err := m.Run(ctx)
			*results = res
			done <- err
		}()
		return <-urls, done, results
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	url, done, _ := start(ctx, 1000, false)
	if status, _ := fleetAdmin(t, url, token, "workers", `{"workers":64}`); status != 200 {
		t.Fatalf("admin workers raise: HTTP %d", status)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := fleetStatus(t, url, token)
		if len(st.Experiments) == 1 && st.Experiments[0].Running >= 64 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget raise never filled 64 slots: %+v", st.Experiments)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within 5s of cancellation after the budget raise")
	}

	wctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	url, done, results := start(wctx, 600, true)
	if status, _ := fleetAdmin(t, url, token, "workers", `{"workers":64}`); status != 200 {
		t.Fatalf("admin workers raise: HTTP %d", status)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run with a raised budget did not finish")
	}
	if got := (*results)["wide"]; got == nil || got.CompletedJobs != 600 {
		t.Fatalf("raised-budget run result %+v, want 600 completed jobs", got)
	}
}

// journalRecords recovers a journal file's full record stream.
func journalRecords(t *testing.T, path string) *state.Recovered {
	t.Helper()
	rec, journal, err := state.RecoverFile(path)
	if err != nil {
		t.Fatalf("recover %s: %v", path, err)
	}
	_ = journal.Close()
	if rec.Truncated {
		t.Fatalf("journal %s has a torn tail", path)
	}
	return rec
}

// TestManagerIsTunerAtN1 pins "one engine": a one-experiment Manager and
// a Tuner with the same space, algorithm, seed and budget write the same
// record stream — identical issues, identical reports, snapshots at the
// same offsets with the same counters and trial tables. Only the
// journal's experiment name and the wall-clock times may differ.
func TestManagerIsTunerAtN1(t *testing.T) {
	const jobs, seed = 900, 17
	algo := ASHA{Eta: 4, MinResource: 1, MaxResource: 256}
	objective := func(_ context.Context, cfg Config, _, to float64, _ interface{}) (float64, interface{}, error) {
		loss := math.Hypot(cfg["x"]-0.7, cfg["y"]-0.2) + math.Exp(-to/8)
		if cfg["x"] > 0.97 {
			loss = math.Inf(1) // a diverged trial travels the non-finite fields
		}
		return loss, loss, nil
	}

	tunerDir, mgrDir := t.TempDir(), t.TempDir()
	if _, err := New(managerSpace(), objective, algo, WithWorkers(1), WithSeed(seed),
		WithMaxJobs(jobs), WithStateDir(tunerDir)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := NewManager(WithManagerWorkers(1), WithManagerStateDir(mgrDir))
	if err := m.Add(Experiment{Name: "solo", Space: managerSpace(), Objective: objective,
		Algorithm: algo, Seed: seed, MaxJobs: jobs}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := journalRecords(t, filepath.Join(tunerDir, tunerJournalName))
	got := journalRecords(t, filepath.Join(mgrDir, journalFileName("solo")))
	if want.Meta.Seed != got.Meta.Seed || want.Meta.Algo != got.Meta.Algo ||
		!reflect.DeepEqual(want.Meta.Params, got.Meta.Params) {
		t.Fatalf("journal identities differ beyond the name: tuner %+v, manager %+v", want.Meta, got.Meta)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("manager journaled %d records, tuner %d", len(got.Records), len(want.Records))
	}
	snapshots := 0
	for i := range want.Records {
		w, g := want.Records[i], got.Records[i]
		switch {
		case w.Issue != nil && g.Issue != nil:
			if !reflect.DeepEqual(*w.Issue, *g.Issue) {
				t.Fatalf("record %d: issue differs: tuner %+v, manager %+v", i, *w.Issue, *g.Issue)
			}
		case w.Report != nil && g.Report != nil:
			wr, gr := *w.Report, *g.Report
			wr.Time, gr.Time = 0, 0
			if !reflect.DeepEqual(wr, gr) {
				t.Fatalf("record %d: report differs: tuner %+v, manager %+v", i, wr, gr)
			}
		case w.Snap != nil && g.Snap != nil:
			snapshots++
			ws, gs := *w.Snap, *g.Snap
			ws.Time, gs.Time = 0, 0
			if !reflect.DeepEqual(ws, gs) {
				t.Fatalf("record %d: snapshot differs: tuner issued/completed/failed %d/%d/%d with %d trials, manager %d/%d/%d with %d",
					i, ws.Issued, ws.Completed, ws.Failed, len(ws.Trials), gs.Issued, gs.Completed, gs.Failed, len(gs.Trials))
			}
		case w.Checkpoint != nil && g.Checkpoint != nil:
			wc, gc := *w.Checkpoint, *g.Checkpoint
			wc.Series, gc.Series = nil, nil // wall-clock times
			if !reflect.DeepEqual(wc, gc) || len(w.Checkpoint.Series) != len(g.Checkpoint.Series) {
				t.Fatalf("record %d: checkpoint differs: tuner issued/completed/failed %d/%d/%d with a %d-byte image, manager %d/%d/%d with %d",
					i, wc.Issued, wc.Completed, wc.Failed, len(wc.Sched), gc.Issued, gc.Completed, gc.Failed, len(gc.Sched))
			}
		default:
			t.Fatalf("record %d: tuner and manager journaled different record kinds: %+v vs %+v", i, w, g)
		}
	}
	if snapshots < 3 {
		t.Fatalf("only %d snapshots compared; the run is too short to pin the cadence", snapshots)
	}
}
