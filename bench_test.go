package asha

// This file is the benchmark harness required by the reproduction: one
// testing.B benchmark per table and figure of the paper's evaluation
// (see EXPERIMENTS.md for the per-experiment index), plus ablation benches
// for the design choices DESIGN.md calls out and micro-benchmarks of
// the scheduler hot path.
//
// Each figure bench runs its experiment end to end at a reduced but
// meaningful scale (so the full suite completes in minutes) and prints
// the regenerated rows/series once. Full paper-scale runs:
//
//	go run ./cmd/ashaexp -exp fig5        (etc.)

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// printOnce guards the one-time printing of each experiment's output so
// b.N loops do not repeat it.
var printOnce sync.Map

func runExperiment(b *testing.B, id string, opt experiments.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, opt)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			fmt.Fprintf(os.Stdout, "\n===== %s: %s =====\n%s\n", res.ID, res.Title, res.Output)
		}
	}
}

// BenchmarkFigure1PromotionScheme regenerates the Figure 1 promotion
// table (exact, deterministic).
func BenchmarkFigure1PromotionScheme(b *testing.B) {
	runExperiment(b, "fig1", experiments.Options{})
}

// BenchmarkFigure2PromotionTrace regenerates the Figure 2 chronological
// job traces for synchronous SHA and ASHA (exact, deterministic).
func BenchmarkFigure2PromotionTrace(b *testing.B) {
	runExperiment(b, "fig2", experiments.Options{})
}

// BenchmarkFigure3Sequential regenerates the Figure 3 sequential
// comparison (both CIFAR-10 benchmarks, all seven searchers).
func BenchmarkFigure3Sequential(b *testing.B) {
	runExperiment(b, "fig3", experiments.Options{Trials: 3})
}

// BenchmarkFigure4Distributed25 regenerates the Figure 4 25-worker
// comparison.
func BenchmarkFigure4Distributed25(b *testing.B) {
	runExperiment(b, "fig4", experiments.Options{Trials: 3})
}

// BenchmarkFigure5LargeScalePTB regenerates the Figure 5 500-worker PTB
// comparison (ASHA vs async Hyperband vs Vizier).
func BenchmarkFigure5LargeScalePTB(b *testing.B) {
	runExperiment(b, "fig5", experiments.Options{Trials: 2})
}

// BenchmarkFigure6ModernLSTM regenerates the Figure 6 DropConnect LSTM
// comparison (ASHA vs PBT, 16 workers).
func BenchmarkFigure6ModernLSTM(b *testing.B) {
	runExperiment(b, "fig6", experiments.Options{Trials: 5})
}

// BenchmarkFigure7Stragglers regenerates the Figure 7 straggler/drop
// grid (configurations trained to R in 2000 time units).
func BenchmarkFigure7Stragglers(b *testing.B) {
	runExperiment(b, "fig7", experiments.Options{Trials: 5})
}

// BenchmarkFigure8TimeToFirst regenerates the Figure 8 grid (time until
// the first configuration trained to R).
func BenchmarkFigure8TimeToFirst(b *testing.B) {
	runExperiment(b, "fig8", experiments.Options{Trials: 5})
}

// BenchmarkFigure9Fabolas regenerates the Figure 9 Fabolas comparison
// on all four Appendix A.2 tasks.
func BenchmarkFigure9Fabolas(b *testing.B) {
	runExperiment(b, "fig9", experiments.Options{Trials: 2})
}

// BenchmarkTable1SearchSpace renders the Table 1 search space.
func BenchmarkTable1SearchSpace(b *testing.B) {
	runExperiment(b, "tab1", experiments.Options{})
}

// BenchmarkTable2SearchSpace renders the Table 2 search space.
func BenchmarkTable2SearchSpace(b *testing.B) {
	runExperiment(b, "tab2", experiments.Options{})
}

// BenchmarkTable3SearchSpace renders the Table 3 search space.
func BenchmarkTable3SearchSpace(b *testing.B) {
	runExperiment(b, "tab3", experiments.Options{})
}

// BenchmarkSection32SpeedupClaim verifies the Section 3.2 wall-clock
// arithmetic analytically and by simulation.
func BenchmarkSection32SpeedupClaim(b *testing.B) {
	runExperiment(b, "speedup", experiments.Options{})
}

// BenchmarkSection33Mispromotions regenerates the sqrt(n) mispromotion
// analysis of Section 3.3.
func BenchmarkSection33Mispromotions(b *testing.B) {
	runExperiment(b, "mispromote", experiments.Options{})
}

// ---------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationInfiniteHorizon compares finite- vs infinite-horizon
// ASHA on the PTB workload: the infinite horizon keeps promoting past R.
func BenchmarkAblationInfiniteHorizon(b *testing.B) {
	bench := workload.PTBLSTM()
	for i := 0; i < b.N; i++ {
		for _, inf := range []bool{false, true} {
			sched := core.NewASHA(core.ASHAConfig{
				Space:           bench.Space(),
				RNG:             xrand.New(17),
				Eta:             4,
				MinResource:     1,
				MaxResource:     bench.MaxResource(),
				InfiniteHorizon: inf,
				RungCap:         6,
			})
			run := cluster.Run(sched, bench.WithNoiseSeed(17), cluster.Options{
				Workers: 100, MaxTime: 3, Seed: 17,
			})
			if _, done := printOnce.LoadOrStore(fmt.Sprintf("inf-%v", inf), true); !done {
				fmt.Printf("ablation infinite-horizon=%v: jobs=%d trials=%d rungs=%v\n",
					inf, run.CompletedJobs, run.Trials, sched.RungSizes())
			}
		}
	}
}

// BenchmarkAblationEarlyStopRate sweeps ASHA's early-stopping rate s on
// benchmark 1 — the bracket ablation behind asynchronous Hyperband.
func BenchmarkAblationEarlyStopRate(b *testing.B) {
	bench := workload.CudaConvnet()
	for i := 0; i < b.N; i++ {
		for s := 0; s <= 3; s++ {
			sched := core.NewASHA(core.ASHAConfig{
				Space:         bench.Space(),
				RNG:           xrand.New(23),
				Eta:           4,
				MinResource:   bench.MaxResource() / 256,
				MaxResource:   bench.MaxResource(),
				EarlyStopRate: s,
			})
			run := cluster.Run(sched, bench.WithNoiseSeed(23), cluster.Options{
				Workers: 25, MaxTime: 150, Seed: 23,
			})
			if _, done := printOnce.LoadOrStore(fmt.Sprintf("esr-%d", s), true); !done {
				fmt.Printf("ablation early-stop s=%d: final test error=%.4f trials=%d\n",
					s, run.FinalTestLoss(), run.Trials)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the scheduler hot path and the executor.

// schedulerLoop returns a function that runs n get_job/report pairs on
// one live ASHA bracket over the ptb-lstm space — the operation rate a
// 500-worker cluster demands.
func schedulerLoop() func(n int) {
	bench := workload.PTBLSTM()
	sched := core.NewASHA(core.ASHAConfig{
		Space:       bench.Space(),
		RNG:         xrand.New(5),
		Eta:         4,
		MinResource: 1,
		MaxResource: bench.MaxResource(),
	})
	rng := xrand.New(6)
	return func(n int) {
		for i := 0; i < n; i++ {
			job, _ := sched.Next()
			sched.Report(core.Result{
				TrialID: job.TrialID, Rung: job.Rung, Config: job.Config,
				Loss: rng.Float64(), Resource: job.TargetResource,
			})
		}
	}
}

// What one get_job/report pair may allocate over 500 000 pairs: config
// arena blocks, the trial table and the rungs' heaps and bitsets
// doubling. Objects: 0.0035 measured, doubled for another Go release's
// slices; one object per call, or per new trial, reads 0.75 or more.
// Bytes: 151 measured, plus 15%. The trial table grown an entry at a
// time, as append alone grows it past 256 entries, reads 247; all of the
// tables so grown read 279.
const (
	schedulerAllocBudget = 0.01
	schedulerBytesBudget = 174
)

// TestASHASchedulerAllocsPerOp keeps heap objects, and per-entry
// structures that grow by doubling, off Next and Report.
func TestASHASchedulerAllocsPerOp(t *testing.T) {
	const ops = 500_000
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	loop := schedulerLoop()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loop(ops)
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / ops
	bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / ops
	t.Logf("%.4f allocs/op, %.0f B/op", perOp, bytesPerOp)
	if perOp > schedulerAllocBudget {
		t.Fatalf("a get_job/report pair allocates %.4f objects, budget %.2f", perOp, schedulerAllocBudget)
	}
	if bytesPerOp > schedulerBytesBudget {
		t.Fatalf("a get_job/report pair allocates %.0f B, budget %d", bytesPerOp, schedulerBytesBudget)
	}
}

// BenchmarkASHASchedulerThroughput is the same loop as a benchmark.
func BenchmarkASHASchedulerThroughput(b *testing.B) {
	loop := schedulerLoop()
	b.ReportAllocs()
	b.ResetTimer()
	loop(b.N)
}

// resumeJobs is the size of the journal resumeLoop replays.
const resumeJobs = 4000

// resumeLoop journals a resumeJobs-job ASHA run and returns a function
// that resumes it n times with the budget spent — recover and replay
// every record, launch nothing — each time from the journal as the run
// left it.
func resumeLoop(tb testing.TB) func(n int) {
	dir := tb.TempDir()
	path := filepath.Join(dir, tunerJournalName)
	tuner := func() *Tuner {
		return New(NewSpace(LogUniform("lr", 1e-4, 1), Uniform("momentum", 0, 1)), resumeObjective,
			ASHA{Eta: 4, MinResource: 1, MaxResource: 256},
			WithWorkers(2), WithMaxJobs(resumeJobs), WithSeed(7), WithStateDir(dir))
	}
	if _, err := tuner().Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			if err := os.WriteFile(path, image, 0o644); err != nil { // less the final snapshot the last Resume appended
				tb.Fatal(err)
			}
			if res, err := tuner().Resume(context.Background()); err != nil || res.CompletedJobs != resumeJobs {
				tb.Fatalf("resume: %v, %+v", err, res)
			}
		}
	}
}

// resumeAllocBudget is what resuming one journaled job may allocate:
// 0.068 measured over ten resumes of resumeJobs jobs — about 270 objects
// a resume, for the tuner, its pool and engine, the window the journal is
// read through, the scheduler restored from the journal's last checkpoint
// (its trials' arena slabs, one array per rung heap) and the tables that
// double as trials arrive — plus slack for another Go release's maps and
// slices. It read 0.112 while a resume replayed every record into the
// scheduler, and 0.078 while each checkpoint decoded its names afresh. A config map per issue reads 2.13, a record per report 1.13,
// a pool record per restored trial 0.86.
//
// resumeBytesBudget is what it may allocate in bytes: 305 measured, plus
// 12%. It read 338 while the per-trial tables grew an entry at a time, and
// 438 while a resume read the journal whole, into a buffer as large as
// the file.
const (
	resumeAllocBudget = 0.2
	resumeBytesBudget = 342
)

// TestResumeAllocsPerJob keeps Tuner.Resume from building anything per
// journal record on its way to the scheduler, or holding the whole
// journal at once.
func TestResumeAllocsPerJob(t *testing.T) {
	const resumes = 10
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	loop := resumeLoop(t)
	loop(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loop(resumes)
	runtime.ReadMemStats(&after)
	perJob := float64(after.Mallocs-before.Mallocs) / (resumes * resumeJobs)
	bytesPerJob := float64(after.TotalAlloc-before.TotalAlloc) / (resumes * resumeJobs)
	t.Logf("%.4f allocs/job, %.0f B/job", perJob, bytesPerJob)
	if perJob > resumeAllocBudget {
		t.Fatalf("a replayed job allocates %.4f objects, budget %.2f", perJob, resumeAllocBudget)
	}
	if bytesPerJob > resumeBytesBudget {
		t.Fatalf("a replayed job allocates %.0f B, budget %d", bytesPerJob, resumeBytesBudget)
	}
}

// BenchmarkResume is the same loop as a benchmark.
func BenchmarkResume(b *testing.B) {
	loop := resumeLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	loop(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*resumeJobs), "ns/job")
}

// BenchmarkSimulatedCluster500Workers measures the discrete-event
// simulator end to end at the paper's largest scale.
func BenchmarkSimulatedCluster500Workers(b *testing.B) {
	bench := workload.PTBLSTM()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sched := core.NewASHA(core.ASHAConfig{
			Space:       bench.Space(),
			RNG:         xrand.New(uint64(i) + 1),
			Eta:         4,
			MinResource: 1,
			MaxResource: bench.MaxResource(),
		})
		cluster.Run(sched, bench.WithNoiseSeed(uint64(i)), cluster.Options{
			Workers: 500, MaxTime: 6, Seed: uint64(i),
		})
	}
}

// BenchmarkTunerGoroutineExecutor measures the public API's real
// concurrent executor on a trivial objective.
func BenchmarkTunerGoroutineExecutor(b *testing.B) {
	space := NewSpace(LogUniform("lr", 1e-4, 1), Uniform("m", 0, 1))
	obj := func(_ context.Context, cfg Config, from, to float64, state interface{}) (float64, interface{}, error) {
		return math.Abs(math.Log10(cfg["lr"])+2) + 1/(1+to), to, nil
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tuner := New(space, obj, ASHA{Eta: 3, MinResource: 1, MaxResource: 27},
			WithWorkers(8), WithMaxJobs(2000), WithSeed(uint64(i)+1))
		if _, err := tuner.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationModelBasedASHA compares plain ASHA with ModelASHA
// (asynchronous BOHB) on benchmark 1 — the paper's stated extension of
// combining ASHA with adaptive selection.
func BenchmarkAblationModelBasedASHA(b *testing.B) {
	bench := workload.CudaConvnet()
	for i := 0; i < b.N; i++ {
		for _, model := range []bool{false, true} {
			var sched core.Scheduler
			if model {
				sched = core.NewModelASHA(core.ModelASHAConfig{
					Space:       bench.Space(),
					RNG:         xrand.New(31),
					Eta:         4,
					MinResource: bench.MaxResource() / 256,
					MaxResource: bench.MaxResource(),
				})
			} else {
				sched = core.NewASHA(core.ASHAConfig{
					Space:       bench.Space(),
					RNG:         xrand.New(31),
					Eta:         4,
					MinResource: bench.MaxResource() / 256,
					MaxResource: bench.MaxResource(),
				})
			}
			run := cluster.Run(sched, bench.WithNoiseSeed(31), cluster.Options{
				Workers: 25, MaxTime: 150, Seed: 31,
			})
			if _, done := printOnce.LoadOrStore(fmt.Sprintf("model-%v", model), true); !done {
				fmt.Printf("ablation model-based=%v: final test error=%.4f trials=%d\n",
					model, run.FinalTestLoss(), run.Trials)
			}
		}
	}
}
