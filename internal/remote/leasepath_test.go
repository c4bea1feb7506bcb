package remote

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// leasePathCase is one way of loading the lease path: a scheduler behind
// backend.Drive, several behind one engine each with a parameter table
// of its own, or jobs straight from Submit; so many agents; the scrape
// surface on or off.
type leasePathCase struct {
	name    string
	direct  bool // no scheduler or engine: Submit every job, then drain
	tables  bool // one lane per leasePathTables entry, sharing the jobs
	unset   bool // no BatchSize, Prefetch or FlushInterval: what asha.Remote{} ships
	agents  int
	metrics bool
	budget  float64 // heap objects per job
	bytes   float64 // heap bytes per job
}

// What one job may allocate between being issued and its result being
// ingested, everything in the process included. A closure, map, context
// or record a job brings costs it at least one object, and its bytes.
// Neither the server's task nor the worker's lease record is among them:
// both are recycled (DESIGN.md "Per-job records on the lease path"),
// so a fresh one is made only while a run's pipeline first fills.
const (
	// ASHA, the engine, the lease server, both ends of the wire, the
	// agent and the objective: measures 1.33 — the objective's boxed
	// float return (1), a boxed checkpoint handed in (0.25), the rest the
	// scheduler's and the first fill's — plus 0.5 of slack.
	leasePathAllocBudget = 1.33 + 0.5
	// The same over leasePathTables' lanes, interleaved on the same two
	// slots: measures 1.38, plus the same slack. A slot that rebuilt its
	// map whenever the table's slice changed — not its names — measured
	// 3.48 here and no more on the single-lane rows, which cannot see it.
	leasePathTablesAllocBudget = 1.38 + 0.5
	// The same without scheduler or engine, over four agents, the
	// caller's config vector included: measures 2.14, plus the same
	// slack. All 20 000 jobs queue at once, so four pipelines of 1 024
	// records fill, the new records of a grants frame with one slab for
	// their vectors and one for their checkpoints; a vector and a
	// checkpoint of each record's own measured 2.24.
	leaseContentionAllocBudget = 2.14 + 0.5
	// The first lane with nothing configured (leasePathCase.unset), where
	// a frame carries a job or two and so shows whole: measures 2.39 — the
	// objective's 1.25 again and, per frame, a reports frame's checkpoint
	// arena and the boxed checkpoints that share no frame — plus the same
	// slack. Cutting each grants frame's records, float slab and read
	// buffer afresh measured 4.89.
	leasePathDefaultsAllocBudget = 2.39 + 0.5
	// What the counters and histograms behind /metrics may add to a
	// job: they are atomics and fixed arrays, and measure 0.00.
	leasePathMetricsAllocSlack = 0.05

	// The bytes behind those objects, measured beside them, each plus
	// 100 B of slack: less than either record would cost a job again
	// (a task is 296 B, a lease record 240). asha measures 340 B and
	// 341 B with metrics; its tables 326 B; contention 608 B (its budget
	// keeps the 606 B it was set from); defaults 264 B. The first three
	// and the last read 420, 425, 370 and 336 B while the per-trial
	// tables grew an entry at a time.
	leasePathBytesBudget           = 341 + 100
	leasePathTablesBytesBudget     = 326 + 100
	leasePathContentionBytesBudget = 606 + 100
	leasePathDefaultsBytesBudget   = 264 + 100
)

// leasePathCases: the fleet benchmark's lane with metrics off and on;
// four lanes whose jobs interleave on one agent's slots, the way a
// manager's experiments do; report ingestion across the sharded lease
// table — four agents' grants and report batches against one server with
// nothing else in the loop, the path the 16-way shard split
// parallelizes; and the first lane again the way tune-paced runs it,
// nothing configured: 16 leases over four four-slot agents, a frame per
// handful of jobs, so whatever a frame or a poll allocates shows whole.
var leasePathCases = []leasePathCase{
	{name: "asha", agents: 1, budget: leasePathAllocBudget, bytes: leasePathBytesBudget},
	{name: "asha-metrics", agents: 1, metrics: true, budget: leasePathAllocBudget, bytes: leasePathBytesBudget},
	{name: "asha-tables", tables: true, agents: 1, budget: leasePathTablesAllocBudget, bytes: leasePathTablesBytesBudget},
	{name: "contention", direct: true, agents: 4, metrics: true, budget: leaseContentionAllocBudget, bytes: leasePathContentionBytesBudget},
	{name: "defaults", unset: true, agents: 4, budget: leasePathDefaultsAllocBudget, bytes: leasePathDefaultsBytesBudget},
}

// leasePathTables are the asha-tables lanes' parameter names. The first
// two are equal in content and distinct as slices (each lane builds its
// own space), which is what experiments of one kind look like to a slot;
// the others make it change key sets.
var leasePathTables = [][]string{
	{"lr", "momentum"},
	{"lr", "momentum"},
	{"lr", "depth"},
	{"width", "dropout", "decay"},
}

// tableSpace is a search space over the named parameters.
func tableSpace(names []string) *searchspace.Space {
	params := make([]searchspace.Param, len(names))
	for i, n := range names {
		params[i] = searchspace.Param{Name: n, Type: searchspace.Uniform, Lo: 0, Hi: 1}
	}
	return searchspace.New(params...)
}

// driveLeasePath runs the given number of jobs through a lease server at
// the fleet benchmark's batching (256-job frames, 512 deep prefetch, 2 ms
// flush) and in-process two-slot agents — or, unset, at the shipped
// defaults under a 16-lease cap and four-slot agents — over an objective
// that costs next to nothing, and returns the heap objects and bytes the
// whole process allocated meanwhile.
func driveLeasePath(tb testing.TB, c leasePathCase, jobs int) (mallocs, bytes uint64) {
	tb.Helper()
	opts, slots, capacity := Options{BatchSize: 256, Prefetch: 512, FlushInterval: 2 * time.Millisecond}, 2, 1024
	if c.unset {
		opts, slots, capacity = Options{MaxLeases: 16}, 4, 16
	}
	opts.Metrics = c.metrics
	srv, err := NewServer(opts)
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	agentDone := make(chan error, c.agents)
	for i := 0; i < c.agents; i++ {
		go func() {
			agentDone <- ServeAgent(ctx, AgentOptions{
				Server: srv.URL(), Slots: slots,
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
	} else if c.tables {
		root := NewBackend(srv, capacity)
		e := backend.NewEngine(root, nil)
		lanes := make([]*backend.Lane, len(leasePathTables))
		for k, names := range leasePathTables {
			sched := core.NewASHA(core.ASHAConfig{
				Space: tableSpace(names), RNG: xrand.New(17 + uint64(k)), Eta: 4, MinResource: 1, MaxResource: 256,
			})
			id := e.NextLane()
			lanes[k] = e.AddLane(sched, root.Lane(id, fmt.Sprintf("exp%d", id)),
				backend.Options{MaxJobs: jobs / len(leasePathTables)}, k, "")
		}
		err = e.Run(ctx)
		completed = 0
		for _, l := range lanes {
			run, lerr := l.Result()
			if err == nil {
				err = lerr
			}
			completed += run.CompletedJobs
			failed += run.FailedJobs
		}
	} else {
		sched := core.NewASHA(core.ASHAConfig{
			Space: testSpace(), RNG: xrand.New(17), Eta: 4, MinResource: 1, MaxResource: 256,
		})
		var run *metrics.Run
		run, err = backend.Drive(ctx, sched, NewBackend(srv, capacity), backend.Options{MaxJobs: jobs})
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

// TestLeasePathAllocsPerJob pins the per-job allocation budget, objects
// and bytes, of the whole Submit → grant → run → report → settle → Await
// path, so a closure, map, record or regrown buffer creeping back onto
// it fails tier-1 and not only a benchmark someone has to read.
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
			mallocs, bytes := driveLeasePath(t, c, jobs)
			perJob[c.name] = float64(mallocs) / jobs
			bytesPerJob := float64(bytes) / jobs
			t.Logf("%.2f allocs/job, %.0f B/job", perJob[c.name], bytesPerJob)
			if perJob[c.name] > c.budget {
				t.Fatalf("lease path allocates %.2f objects per job, budget %.2f", perJob[c.name], c.budget)
			}
			if bytesPerJob > c.bytes {
				t.Fatalf("lease path allocates %.0f B per job, budget %.0f", bytesPerJob, c.bytes)
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
