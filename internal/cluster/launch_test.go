package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/workload"
)

// simRun is one ASHA run (eta 4, bottom rung r) of bench on the
// simulator; a run cut at a job count or a horizon repeats exactly.
func simRun(bench *workload.Benchmark, r float64, seed uint64, opt Options) (completed int, bestBits uint64) {
	b := bench.WithNoiseSeed(seed)
	opt.Seed = seed + 1
	run := Run(newASHA(b, seed+1, 4, r), b, opt)
	best := math.NaN()
	if n := len(run.Series); n > 0 {
		best = run.Series[n-1].ValLoss
	}
	return run.CompletedJobs, math.Float64bits(best)
}

// paperRun is one run of the paper's largest regime as bench/'s
// sim-paper workload assembles it — ASHA (eta 4, r = R/64) on ptb-lstm
// with 500 workers — cut at a fixed job count.
func paperRun(bench *workload.Benchmark, seed uint64, jobs int) (completed int, bestBits uint64) {
	return simRun(bench, 1, seed, Options{Workers: 500, MaxJobs: jobs})
}

// What one simulated job may allocate, ASHA, the engine and the
// simulator together, in each regime of simLaunchCases: what the run
// measures (slabs, arena blocks and the dense tables doubling, none of it
// per trial) plus slack for another Go release's maps and slices. About
// three jobs in four start a trial and a trial is a slab record, so one
// heap object per trial adds 0.7 or more to any of them.
const (
	simLaunchAllocBudget     = 0.032 + 0.06 // 1 918 objects over 60 000 jobs
	simStragglersAllocBudget = 0.25 + 0.11  // 706 over the 2 828 jobs the horizon admits
	sim10kAllocBudget        = 0.020 + 0.05 // 4 088 over 200 000 jobs, most sized by the worker count
	sim100kAllocBudget       = 0.010 + 0.05 // 4 126 over 400 000 jobs
)

// The bytes behind those objects, measured, plus slack. A per-trial table
// grown an entry at a time rather than doubled allocates about five times
// its final size: ASHA's configurations grown so read 416, 402, 511 and
// 1 258 B, and the slack on the paper's and 10 000 workers' rows is less
// than that table adds. A second copy of each new trial's configuration
// costs about 70 B a job; with it, and a trial's state spread over five
// tables grown an entry at a time, the rows measured 573, 499, 667 and
// 1 469 B.
const (
	simLaunchBytesBudget     = 364 + 36  // 364.2 B a job
	simStragglersBytesBudget = 384 + 60  // 384.3
	sim10kBytesBudget        = 416 + 50  // 415.5
	sim100kBytesBudget       = 1173 + 60 // 1 173
)

// simLaunchCases are the regimes whose allocations are gated, and that
// BenchmarkSimLaunch times: the paper's, stragglers and drops on the
// constant-cost benchmark 1 space (retry queue, equal-time batches),
// 10 000 workers on ptb-lstm (continuous costs keep the calendar queue's
// ring and far tiers busy) and 100 000 on benchmark 1 (every wave of
// same-cost jobs completes at one instant, so completions must batch).
var simLaunchCases = []struct {
	name   string
	bench  func() *workload.Benchmark
	rDiv   float64 // r = R / rDiv
	opt    Options
	budget float64 // heap objects per job
	bytes  float64 // heap bytes per job
}{
	{"paper", workload.PTBLSTM, 64, Options{Workers: 500, MaxJobs: 60_000}, simLaunchAllocBudget, simLaunchBytesBudget},
	{"stragglers", workload.CudaConvnet, 256, Options{Workers: 25, MaxTime: 100, StragglerSD: 0.5, DropProb: 0.01}, simStragglersAllocBudget, simStragglersBytesBudget},
	{"10k-workers", workload.PTBLSTM, 64, Options{Workers: 10_000, MaxJobs: 200_000}, sim10kAllocBudget, sim10kBytesBudget},
	{"100k-workers", workload.CudaConvnet, 256, Options{Workers: 100_000, MaxJobs: 400_000}, sim100kAllocBudget, sim100kBytesBudget},
}

// measureSimRun returns the jobs one simRun completes and the heap
// objects and bytes it allocates, scheduler and engine included.
func measureSimRun(tb testing.TB, bench *workload.Benchmark, rDiv float64, opt Options) (jobs int, mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	jobs, _ = simRun(bench, bench.MaxResource()/rDiv, 1, opt)
	runtime.ReadMemStats(&after)
	if jobs == 0 || opt.MaxJobs > 0 && jobs != opt.MaxJobs {
		tb.Fatalf("completed %d of %d jobs", jobs, opt.MaxJobs)
	}
	return jobs, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestSimLaunchAllocsPerJob keeps per-trial heap objects, copies and
// tables that grow without doubling from creeping back onto Launch, in
// tier-1 rather than in a benchmark someone has to
// read. No warm-up run: the runtime's lazy set-up is a dozen objects,
// under 0.005 a job in every regime.
func TestSimLaunchAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, c := range simLaunchCases {
		t.Run(c.name, func(t *testing.T) {
			bench := c.bench()
			jobs, mallocs, bytes := measureSimRun(t, bench, c.rDiv, c.opt)
			perJob := float64(mallocs) / float64(jobs)
			bytesPerJob := float64(bytes) / float64(jobs)
			t.Logf("%.3f allocs/job (%d objects), %.1f B/job over %d jobs", perJob, mallocs, bytesPerJob, jobs)
			if perJob > c.budget {
				t.Fatalf("a simulated job allocates %.3f objects, budget %.3f", perJob, c.budget)
			}
			if bytesPerJob > c.bytes {
				t.Fatalf("a simulated job allocates %.1f B, budget %.0f", bytesPerJob, c.bytes)
			}
		})
	}
}

// BenchmarkSimLaunch is the same runs as benchmarks: time, heap objects
// and bytes per job.
func BenchmarkSimLaunch(b *testing.B) {
	for _, c := range simLaunchCases {
		b.Run(c.name, func(b *testing.B) {
			bench := c.bench()
			var jobs int
			var mallocs, bytes uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, m, by := measureSimRun(b, bench, c.rDiv, c.opt)
				jobs += j
				mallocs += m
				bytes += by
			}
			n := float64(jobs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/job")
			b.ReportMetric(float64(mallocs)/n, "allocs/job")
			b.ReportMetric(float64(bytes)/n, "B/job")
		})
	}
}

// TestSimsShareBenchmarkConcurrently: the surfaces, their level tables,
// the cost tables and the percentile index sit on the Benchmark every run
// shares, the trial slab on each Sim, and each trial holds its own
// scheduler's configuration. Four runs at once must be the four runs one
// after another.
func TestSimsShareBenchmarkConcurrently(t *testing.T) {
	const runs, jobs = 4, 6_000
	bench := workload.PTBLSTM()
	digest := func(seed uint64) string {
		completed, best := paperRun(bench, seed, jobs)
		return fmt.Sprintf("%d/%x", completed, best)
	}
	var want, got [runs]string
	for i := range want {
		want[i] = digest(uint64(i))
	}
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = digest(uint64(i))
		}(i)
	}
	wg.Wait()
	if got != want {
		t.Fatalf("concurrent runs %v, sequential %v", got, want)
	}
}
