package cluster

import (
	"context"
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/searchspace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func newASHA(bench *workload.Benchmark, seed uint64, eta int, r float64) *core.ASHA {
	return core.NewASHA(core.ASHAConfig{
		Space:       bench.Space(),
		RNG:         xrand.New(seed),
		Eta:         eta,
		MinResource: r,
		MaxResource: bench.MaxResource(),
	})
}

func TestSimRunsASHAToBudget(t *testing.T) {
	bench := workload.CudaConvnet()
	sched := newASHA(bench, 1, 4, bench.MaxResource()/256)
	run := Run(sched, bench, Options{Workers: 25, MaxTime: 100, Seed: 1})
	if run.CompletedJobs == 0 {
		t.Fatal("no jobs completed")
	}
	if run.EndTime > 100+1e-9 {
		t.Fatalf("clock exceeded MaxTime: %v", run.EndTime)
	}
	if len(run.Series) == 0 {
		t.Fatal("no incumbent points recorded")
	}
}

func TestSimIncumbentSeriesMonotone(t *testing.T) {
	bench := workload.SmallCNNCIFAR()
	sched := newASHA(bench, 2, 4, bench.MaxResource()/256)
	run := Run(sched, bench, Options{Workers: 10, MaxTime: 150, Seed: 2})
	for i := 1; i < len(run.Series); i++ {
		if run.Series[i].Time < run.Series[i-1].Time {
			t.Fatal("series time not monotone")
		}
		if run.Series[i].ValLoss > run.Series[i-1].ValLoss+1e-12 {
			t.Fatal("incumbent validation loss increased")
		}
	}
}

func TestSimMoreWorkersMoreThroughput(t *testing.T) {
	bench := workload.CudaConvnet()
	run1 := Run(newASHA(bench, 3, 4, bench.MaxResource()/256), bench, Options{Workers: 1, MaxTime: 80, Seed: 3})
	run25 := Run(newASHA(bench, 3, 4, bench.MaxResource()/256), bench, Options{Workers: 25, MaxTime: 80, Seed: 3})
	if run25.CompletedJobs < 10*run1.CompletedJobs {
		t.Fatalf("25 workers completed %d jobs vs %d with 1 worker; expected ~25x", run25.CompletedJobs, run1.CompletedJobs)
	}
}

func TestSimDeterministicGivenSeeds(t *testing.T) {
	bench := workload.CudaConvnet()
	mk := func() *core.ASHA { return newASHA(bench, 7, 4, bench.MaxResource()/256) }
	a := Run(mk(), bench.WithNoiseSeed(1), Options{Workers: 5, MaxTime: 60, Seed: 9})
	b := Run(mk(), bench.WithNoiseSeed(1), Options{Workers: 5, MaxTime: 60, Seed: 9})
	if a.CompletedJobs != b.CompletedJobs || len(a.Series) != len(b.Series) {
		t.Fatal("same-seed simulations diverged")
	}
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			t.Fatal("same-seed series diverged")
		}
	}
}

func TestSimStragglersSlowCompletion(t *testing.T) {
	bench := workload.CudaConvnet()
	fast := Run(newASHA(bench, 4, 4, bench.MaxResource()/256), bench, Options{Workers: 10, MaxTime: 200, Seed: 4})
	slow := Run(newASHA(bench, 4, 4, bench.MaxResource()/256), bench, Options{Workers: 10, MaxTime: 200, Seed: 4, StragglerSD: 1.5})
	if slow.CompletedJobs >= fast.CompletedJobs {
		t.Fatalf("stragglers should reduce throughput: %d vs %d", slow.CompletedJobs, fast.CompletedJobs)
	}
}

func TestSimDropsProduceFailures(t *testing.T) {
	bench := workload.CudaConvnet()
	run := Run(newASHA(bench, 5, 4, bench.MaxResource()/256), bench, Options{Workers: 10, MaxTime: 200, Seed: 5, DropProb: 0.01})
	if run.FailedJobs == 0 {
		t.Fatal("drop probability produced no failures")
	}
	// ASHA retries failures, so completions should still happen.
	if run.CompletedJobs == 0 {
		t.Fatal("no completions despite retries")
	}
}

func TestSimFailureRollsBackTrialState(t *testing.T) {
	// With 100% certain drops (p=1 means drop each unit; any job of
	// positive duration fails), trials must make no progress.
	bench := workload.CudaConvnet()
	sched := newASHA(bench, 6, 4, bench.MaxResource()/256)
	run := Run(sched, bench, Options{Workers: 2, MaxTime: 20, Seed: 6, DropProb: 0.9999})
	if run.ConfigsToR != 0 {
		t.Fatal("configurations reached R despite constant drops")
	}
	if run.CompletedJobs != 0 && run.FailedJobs == 0 {
		t.Fatal("expected failures under certain drops")
	}
}

// inFlightCheck is a Sim that, after every batch it returns, holds its
// trial records to the jobs in flight: a trial is running exactly while
// one of its jobs is queued, so a dropped job's rollback must leave it
// idle, or a PBT heir of the trial would later restore a stale state.
type inFlightCheck struct {
	*Sim
	t *testing.T
}

func (c inFlightCheck) Await(ctx context.Context) ([]backend.Completion, error) {
	batch, err := c.Sim.Await(ctx)
	c.check("after a batch")
	return batch, err
}

func (c inFlightCheck) check(when string) {
	c.t.Helper()
	running := 0
	for _, tr := range c.trials {
		if tr != nil && tr.running {
			running++
		}
	}
	if running != c.events.Len() {
		c.t.Fatalf("%s: %d trials running, %d jobs in flight", when, running, c.events.Len())
	}
}

func TestSimTrialRunsWhileItsJobIsInFlight(t *testing.T) {
	bench := workload.CudaConvnet()
	for _, sched := range []core.Scheduler{
		newASHA(bench, 5, 4, bench.MaxResource()/256),
		core.NewPBT(core.PBTConfig{Space: bench.Space(), RNG: xrand.New(5), Population: 8,
			Step: bench.MaxResource() / 16, MaxResource: bench.MaxResource(), TruncationFrac: 0.25,
			SpawnPopulations: true}),
	} {
		c := inFlightCheck{New(sched, bench, Options{Workers: 10, MaxTime: 200, Seed: 5, DropProb: 0.05}), t}
		run, err := backend.Drive(context.Background(), sched, c, backend.Options{MaxTime: 200, MaxResource: bench.MaxResource()})
		if err != nil {
			t.Fatal(err)
		}
		if run.FailedJobs == 0 {
			t.Fatalf("%T: no job was dropped", sched)
		}
		c.check("after Close")
	}
}

func TestSimCountsConfigsToR(t *testing.T) {
	bench := workload.CudaConvnet()
	sched := core.NewRandomSearch(core.RandomSearchConfig{
		Space:       bench.Space(),
		RNG:         xrand.New(8),
		MaxResource: bench.MaxResource(),
	})
	run := Run(sched, bench, Options{Workers: 4, MaxTime: 85, Seed: 8})
	// With time(R)=40 and 4 workers over 85 minutes: 2 rounds of 4.
	if run.ConfigsToR != 8 {
		t.Fatalf("ConfigsToR = %d, want 8", run.ConfigsToR)
	}
	if math.IsInf(run.FirstRTime, 1) || math.Abs(run.FirstRTime-40) > 1e-9 {
		t.Fatalf("FirstRTime = %v, want 40", run.FirstRTime)
	}
}

func TestSimHonorsMaxJobs(t *testing.T) {
	bench := workload.CudaConvnet()
	sched := newASHA(bench, 9, 4, bench.MaxResource()/256)
	run := Run(sched, bench, Options{Workers: 4, MaxJobs: 10, Seed: 9})
	if run.IssuedJobs != 10 {
		t.Fatalf("issued %d jobs, want exactly 10", run.IssuedJobs)
	}
}

func TestSimSyncSHAIdlesAtBarrier(t *testing.T) {
	// Synchronous SHA with stragglers wastes worker time at rung
	// barriers; ASHA with the same budget completes more total resource.
	bench := workload.SmallCNNCIFAR()
	r := bench.MaxResource() / 256
	sha := core.NewSHA(core.SHAConfig{
		Space: bench.Space(), RNG: xrand.New(10),
		N: 64, Eta: 4, MinResource: r, MaxResource: bench.MaxResource(),
		AllowNewBrackets: true,
	})
	asha := newASHA(bench, 10, 4, r)
	opt := Options{Workers: 25, MaxTime: 100, Seed: 10, StragglerSD: 1.0}
	shaRun := Run(sha, bench, opt)
	ashaRun := Run(asha, bench, opt)
	if ashaRun.TotalResource <= shaRun.TotalResource {
		t.Fatalf("ASHA should out-utilize sync SHA under stragglers: %v vs %v",
			ashaRun.TotalResource, shaRun.TotalResource)
	}
}

func TestSimPBTInheritance(t *testing.T) {
	bench := workload.SmallCNNCIFAR()
	pbt := core.NewPBT(core.PBTConfig{
		Space:            bench.Space(),
		RNG:              xrand.New(11),
		Population:       8,
		Step:             1000,
		MaxResource:      bench.MaxResource(),
		TruncationFrac:   0.25,
		MaxLag:           2000,
		FrozenParams:     workload.ArchParams(),
		SpawnPopulations: true,
	})
	run := Run(pbt, bench, Options{Workers: 8, MaxTime: 200, Seed: 11})
	if run.CompletedJobs < 50 {
		t.Fatalf("PBT made little progress: %d jobs", run.CompletedJobs)
	}
	if len(run.Series) == 0 {
		t.Fatal("no incumbent series")
	}
	final := run.Series[len(run.Series)-1]
	if final.TestLoss >= 0.9 {
		t.Fatal("PBT never improved on random guessing")
	}
}

func TestSimEvaluatorOverridesTestMetric(t *testing.T) {
	bench := workload.CudaConvnet()
	sched := newASHA(bench, 12, 4, bench.MaxResource()/256)
	run := Run(sched, bench, Options{
		Workers: 4, MaxTime: 50, Seed: 12,
		Evaluator: func(cfg searchspace.Config) float64 { return 42 },
	})
	for _, p := range run.Series {
		if p.TestLoss != 42 {
			t.Fatalf("evaluator not applied: %v", p.TestLoss)
		}
	}
}

func TestSimValidatesWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero workers")
		}
	}()
	bench := workload.CudaConvnet()
	New(newASHA(bench, 13, 4, 1), bench, Options{Workers: 0})
}

func TestSimStopAtFirstR(t *testing.T) {
	bench := workload.CudaConvnet()
	sched := newASHA(bench, 21, 4, bench.MaxResource()/256)
	run := Run(sched, bench, Options{Workers: 25, MaxTime: 5000, Seed: 21, StopAtFirstR: true})
	if math.IsInf(run.FirstRTime, 1) {
		t.Fatal("no configuration reached R")
	}
	if run.EndTime > run.FirstRTime+1e-9 {
		t.Fatalf("simulation ran past the first R completion: end %v vs first %v", run.EndTime, run.FirstRTime)
	}
	if run.ConfigsToR != 1 {
		t.Fatalf("expected exactly one configuration at R, got %d", run.ConfigsToR)
	}
}

func TestSimVizierEndToEnd(t *testing.T) {
	bench := workload.PTBLSTM()
	sched := core.NewVizier(core.VizierConfig{
		Space:           bench.Space(),
		RNG:             xrand.New(22),
		MaxResource:     bench.MaxResource(),
		LossCap:         1000,
		MaxObservations: 60,
		RefitEvery:      10,
		Candidates:      32,
	})
	run := Run(sched, bench, Options{Workers: 20, MaxTime: 3, Seed: 22})
	if run.CompletedJobs < 20 {
		t.Fatalf("Vizier barely ran: %d jobs", run.CompletedJobs)
	}
	if run.FinalTestLoss() > 200 {
		t.Fatalf("Vizier incumbent is terrible: %v", run.FinalTestLoss())
	}
}

func TestSimFabolasEndToEnd(t *testing.T) {
	bench := workload.SVMVehicle()
	sched := core.NewFabolas(core.FabolasConfig{
		Space:           bench.Space(),
		RNG:             xrand.New(23),
		MaxResource:     bench.MaxResource(),
		MaxObservations: 60,
		Candidates:      32,
	})
	run := Run(sched, bench, Options{Workers: 1, MaxTime: 300, Seed: 23})
	if run.CompletedJobs < 10 {
		t.Fatalf("Fabolas barely ran: %d jobs", run.CompletedJobs)
	}
	if run.FinalTestLoss() > 0.5 {
		t.Fatalf("Fabolas incumbent is terrible: %v", run.FinalTestLoss())
	}
}

func TestSimModelASHAEndToEnd(t *testing.T) {
	bench := workload.CudaConvnet()
	sched := core.NewModelASHA(core.ModelASHAConfig{
		Space:       bench.Space(),
		RNG:         xrand.New(24),
		Eta:         4,
		MinResource: bench.MaxResource() / 256,
		MaxResource: bench.MaxResource(),
	})
	run := Run(sched, bench, Options{Workers: 25, MaxTime: 100, Seed: 24})
	if run.FinalTestLoss() > 0.3 {
		t.Fatalf("ModelASHA found only %v", run.FinalTestLoss())
	}
}

func TestSimTraceRecordsJobs(t *testing.T) {
	bench := workload.CudaConvnet()
	sched := newASHA(bench, 31, 4, bench.MaxResource()/256)
	sim := New(sched, bench, Options{Workers: 4, MaxJobs: 50, Seed: 31, RecordTrace: true})
	sim.Run()
	trace := sim.Trace()
	if len(trace) == 0 {
		t.Fatal("no trace recorded")
	}
	for i, ev := range trace {
		if ev.End < ev.Start {
			t.Fatalf("event %d ends before it starts: %+v", i, ev)
		}
		if ev.To < ev.From {
			t.Fatalf("event %d loses resource: %+v", i, ev)
		}
		if i > 0 && ev.End < trace[i-1].End {
			t.Fatal("trace not in completion order")
		}
	}
}

func TestSimTraceWorkerConservation(t *testing.T) {
	// At any moment at most Workers jobs overlap in the trace.
	bench := workload.CudaConvnet()
	sched := newASHA(bench, 32, 4, bench.MaxResource()/256)
	workers := 3
	sim := New(sched, bench, Options{Workers: workers, MaxJobs: 80, Seed: 32, RecordTrace: true})
	sim.Run()
	trace := sim.Trace()
	for _, probe := range trace {
		overlap := 0
		mid := (probe.Start + probe.End) / 2
		for _, ev := range trace {
			if ev.Start <= mid && mid < ev.End {
				overlap++
			}
		}
		if overlap > workers {
			t.Fatalf("%d jobs overlapped with %d workers", overlap, workers)
		}
	}
}

func TestSimTrialsAccessor(t *testing.T) {
	bench := workload.CudaConvnet()
	sched := newASHA(bench, 33, 4, bench.MaxResource()/256)
	sim := New(sched, bench, Options{Workers: 4, MaxJobs: 30, Seed: 33})
	run := sim.Run()
	trials := sim.TrialsForTest()
	if len(trials) != run.Trials {
		t.Fatalf("accessor exposes %d trials, run counted %d", len(trials), run.Trials)
	}
	total := 0.0
	for _, tr := range trials {
		total += tr.Resource()
	}
	if math.Abs(total-run.TotalResource) > 1e-9 {
		t.Fatalf("trial resources %v do not sum to run total %v", total, run.TotalResource)
	}
}
