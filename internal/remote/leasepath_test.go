package remote

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/xrand"
)

// leasePathCase is one way of loading the lease path: a scheduler behind
// backend.Drive or jobs straight from Submit, so many agents, the scrape
// surface on or off.
type leasePathCase struct {
	name    string
	direct  bool // no scheduler or engine: Submit every job, then drain
	agents  int
	metrics bool
	budget  float64 // heap objects per job
}

// What one job may allocate between being issued and its result being
// ingested, everything in the process included. A closure, map or record
// a job brings back costs it at least one object.
const (
	// ASHA, the engine, the lease server, both ends of the wire, the
	// agent and the objective's own config map and checkpoint: the value
	// measured when the per-job records moved to slabs (DESIGN.md
	// "Per-job records on the lease path"), plus 0.5 of slack.
	leasePathAllocBudget = 6.44 + 0.5
	// The same without scheduler or engine, over four agents, the
	// caller's config vector included: measures 7.28, plus the same slack.
	leaseContentionAllocBudget = 7.28 + 0.5
	// What the counters and histograms behind /metrics may add to a
	// job: they are atomics and fixed arrays, and measure 0.00.
	leasePathMetricsAllocSlack = 0.05
)

// leasePathCases: the fleet benchmark's lane with metrics off and on,
// and report ingestion across the sharded lease table — four agents'
// grants and report batches against one server with nothing else in the
// loop, the path the 16-way shard split parallelizes.
var leasePathCases = []leasePathCase{
	{name: "asha", agents: 1, budget: leasePathAllocBudget},
	{name: "asha-metrics", agents: 1, metrics: true, budget: leasePathAllocBudget},
	{name: "contention", direct: true, agents: 4, metrics: true, budget: leaseContentionAllocBudget},
}

// driveLeasePath runs the given number of jobs through a lease server at
// the fleet benchmark's batching (256-job frames, 512 deep prefetch, 2 ms
// flush) and in-process two-slot agents over an objective that costs
// next to nothing, and returns the heap objects and bytes the whole
// process allocated meanwhile.
func driveLeasePath(tb testing.TB, c leasePathCase, jobs int) (mallocs, bytes uint64) {
	tb.Helper()
	srv, err := NewServer(Options{BatchSize: 256, Prefetch: 512, FlushInterval: 2 * time.Millisecond, Metrics: c.metrics})
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	agentDone := make(chan error, c.agents)
	for i := 0; i < c.agents; i++ {
		go func() {
			agentDone <- ServeAgent(ctx, AgentOptions{
				Server: srv.URL(), Slots: 2,
				Resolve: func(string) (exec.Objective, error) { return pureObjective, nil },
			})
		}()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	completed, failed := jobs, 0
	if c.direct {
		var settled sync.WaitGroup
		var lost atomic.Int64
		done := func(o Outcome) {
			if o.Failed {
				lost.Add(1)
			}
			settled.Done()
		}
		names := []string{"lr", "momentum"}
		settled.Add(jobs)
		for i := 0; i < jobs; i++ {
			srv.Submit(JobPayload{Trial: i, Names: names, Vec: []float64{float64(i), 0.9}, To: 1}, done)
		}
		settled.Wait()
		failed = int(lost.Load())
		err = srv.Close()
	} else {
		sched := core.NewASHA(core.ASHAConfig{
			Space: testSpace(), RNG: xrand.New(17), Eta: 4, MinResource: 1, MaxResource: 256,
		})
		var run *metrics.Run
		run, err = backend.Drive(ctx, sched, NewBackend(srv, 1024), backend.Options{MaxJobs: jobs})
		if err == nil {
			completed, failed = run.CompletedJobs, run.FailedJobs
		}
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatalf("drive failed: %v", err)
	}
	if completed != jobs || failed != 0 {
		tb.Fatalf("completed %d / failed %d of %d jobs", completed, failed, jobs)
	}
	for i := 0; i < c.agents; i++ {
		if err := <-agentDone; err != nil {
			tb.Fatalf("agent: %v", err)
		}
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

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
	driveLeasePath(t, leasePathCases[0], jobs/4) // warm-up: pools, the runtime's own lazy set-up
	perJob := make(map[string]float64)
	for _, c := range leasePathCases {
		t.Run(c.name, func(t *testing.T) {
			mallocs, _ := driveLeasePath(t, c, jobs)
			perJob[c.name] = float64(mallocs) / jobs
			t.Logf("%.2f allocs/job", perJob[c.name])
			if perJob[c.name] > c.budget {
				t.Fatalf("lease path allocates %.2f objects per job, budget %.2f", perJob[c.name], c.budget)
			}
		})
	}
	if on, off := perJob["asha-metrics"], perJob["asha"]; on-off > leasePathMetricsAllocSlack {
		t.Fatalf("metrics on costs a job %.2f objects against %.2f off, %.2f allowed", on, off, leasePathMetricsAllocSlack)
	}
}

// BenchmarkLeasePath is the same runs as benchmarks: time, heap objects
// and bytes per job.
func BenchmarkLeasePath(b *testing.B) {
	const jobs = 20_000
	for _, c := range leasePathCases {
		b.Run(c.name, func(b *testing.B) {
			var mallocs, bytes uint64
			for i := 0; i < b.N; i++ {
				m, by := driveLeasePath(b, c, jobs)
				mallocs += m
				bytes += by
			}
			n := float64(b.N * jobs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/job")
			b.ReportMetric(float64(mallocs)/n, "allocs/job")
			b.ReportMetric(float64(bytes)/n, "B/job")
		})
	}
}
