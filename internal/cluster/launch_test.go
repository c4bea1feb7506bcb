package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/workload"
)

// paperRun is one run of the paper's largest regime as bench/'s
// sim-paper workload assembles it — ASHA (eta 4, r = R/64) on ptb-lstm
// with 500 workers — cut at a fixed job count so it repeats exactly.
func paperRun(bench *workload.Benchmark, seed uint64, jobs int) (completed int, bestBits uint64) {
	b := bench.WithNoiseSeed(seed)
	run := Run(newASHA(b, seed+1, 4, 1), b, Options{Workers: 500, MaxJobs: jobs, Seed: seed + 1})
	best := math.NaN()
	if n := len(run.Series); n > 0 {
		best = run.Series[n-1].ValLoss
	}
	return run.CompletedJobs, math.Float64bits(best)
}

// measurePaperRun returns the heap objects and bytes one paperRun
// allocates, scheduler and engine included.
func measurePaperRun(tb testing.TB, bench *workload.Benchmark, jobs int) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	completed, _ := paperRun(bench, 1, jobs)
	runtime.ReadMemStats(&after)
	if completed != jobs {
		tb.Fatalf("completed %d of %d jobs", completed, jobs)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// simLaunchAllocBudget is what one simulated job may allocate, ASHA, the
// engine and the simulator together. Three jobs in four start a trial
// here, and a trial is a slab record: the run measures 0.04 (slabs,
// arena blocks and the dense tables doubling). One object per trial —
// any one of the five a trial used to be — would read 0.76.
const simLaunchAllocBudget = 0.10

// TestSimLaunchAllocsPerJob keeps per-trial heap objects from creeping
// back onto Launch, in tier-1 rather than in a benchmark someone has to
// read.
func TestSimLaunchAllocsPerJob(t *testing.T) {
	const jobs = 60_000
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	bench := workload.PTBLSTM()
	measurePaperRun(t, bench, jobs/4) // warm-up: the runtime's own lazy set-up
	mallocs, _ := measurePaperRun(t, bench, jobs)
	perJob := float64(mallocs) / jobs
	t.Logf("%.3f allocs/job", perJob)
	if perJob > simLaunchAllocBudget {
		t.Fatalf("a simulated job allocates %.3f objects, budget %.2f", perJob, simLaunchAllocBudget)
	}
}

// BenchmarkSimLaunch is the same run as a benchmark: time, heap objects
// and bytes per job.
func BenchmarkSimLaunch(b *testing.B) {
	const jobs = 60_000
	bench := workload.PTBLSTM()
	var mallocs, bytes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, by := measurePaperRun(b, bench, jobs)
		mallocs += m
		bytes += by
	}
	n := float64(b.N * jobs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/job")
	b.ReportMetric(float64(mallocs)/n, "allocs/job")
	b.ReportMetric(float64(bytes)/n, "B/job")
}

// TestSimsShareBenchmarkConcurrently: the surfaces, their level tables
// and the percentile index sit on the Benchmark every run shares, the
// trial slab and config arena on each Sim. Four runs at once must be the
// four runs one after another.
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
