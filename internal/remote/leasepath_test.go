package remote

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/xrand"
)

// driveLeasePath runs one ASHA lane of the given size through a lease
// server at the fleet benchmark's batching (256-job frames, 512 deep
// prefetch, 2 ms flush) and one in-process two-slot agent over an
// objective that costs next to nothing, and returns the heap objects
// and bytes the whole process allocated meanwhile.
func driveLeasePath(tb testing.TB, jobs int) (mallocs, bytes uint64) {
	tb.Helper()
	srv, err := NewServer(Options{BatchSize: 256, Prefetch: 512, FlushInterval: 2 * time.Millisecond})
	if err != nil {
		tb.Fatal(err)
	}
	be := NewBackend(srv, 1024)
	sched := core.NewASHA(core.ASHAConfig{
		Space: testSpace(), RNG: xrand.New(17), Eta: 4, MinResource: 1, MaxResource: 256,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	agentDone := make(chan error, 1)
	go func() {
		agentDone <- ServeAgent(ctx, AgentOptions{
			Server: srv.URL(), Slots: 2,
			Resolve: func(string) (exec.Objective, error) { return pureObjective, nil },
		})
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run, err := backend.Drive(ctx, sched, be, backend.Options{MaxJobs: jobs})
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatalf("drive failed: %v", err)
	}
	if run.CompletedJobs != jobs || run.FailedJobs != 0 {
		tb.Fatalf("completed %d / failed %d of %d jobs", run.CompletedJobs, run.FailedJobs, jobs)
	}
	if err := <-agentDone; err != nil {
		tb.Fatalf("agent: %v", err)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// leasePathAllocBudget is what one job may allocate between the
// scheduler issuing it and the engine ingesting its result, everything
// included — ASHA, the engine, the lease server, both ends of the wire,
// the agent and the objective's own config map and checkpoint: the
// value measured when the per-job records moved to slabs (DESIGN.md
// "Per-job records on the lease path"), plus 0.5 of slack.
const leasePathAllocBudget = 6.44 + 0.5

// TestLeasePathAllocsPerJob pins the per-job allocation budget of the
// whole Submit → grant → run → report → settle → Await path, so a
// closure, map or regrown buffer creeping back onto it fails tier-1 and
// not only a benchmark someone has to read.
func TestLeasePathAllocsPerJob(t *testing.T) {
	const jobs = 20_000
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	// One P, as the fleet benchmark runs: the agent's slots then drain
	// whole frames between switches, so the per-frame allocations
	// spread over full batches and the count repeats run to run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	driveLeasePath(t, jobs/4) // warm-up: pools, the runtime's own lazy set-up
	mallocs, _ := driveLeasePath(t, jobs)
	perJob := float64(mallocs) / jobs
	t.Logf("%.2f allocs/job", perJob)
	if perJob > leasePathAllocBudget {
		t.Fatalf("lease path allocates %.2f objects per job, budget %.2f", perJob, leasePathAllocBudget)
	}
}

// BenchmarkLeasePath is the same run as a benchmark: time, heap objects
// and bytes per job.
func BenchmarkLeasePath(b *testing.B) {
	const jobs = 20_000
	var mallocs, bytes uint64
	for i := 0; i < b.N; i++ {
		m, by := driveLeasePath(b, jobs)
		mallocs += m
		bytes += by
	}
	n := float64(b.N * jobs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/job")
	b.ReportMetric(float64(mallocs)/n, "allocs/job")
	b.ReportMetric(float64(bytes)/n, "B/job")
}
