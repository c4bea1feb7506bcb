// Command ashabench records the repository's performance trajectory: it
// runs the hot-path micro-benchmarks and a slice of the figure
// experiments with fixed operation counts, writes the results to
// BENCH_<date>.json, and compares them against the newest committed
// BENCH_*.json baseline, failing (exit 1) on regressions beyond a
// threshold.
//
// Metrics per benchmark: ns/op, allocs/op, bytes/op, and jobs/sec for
// the benchmarks that drive simulated clusters. Because operation counts
// are fixed (not auto-scaled), numbers are comparable across runs of the
// same version and across versions on the same machine.
//
// The regression gate compares allocs/op unconditionally — allocation
// counts are deterministic and machine-independent — and gates on ns/op
// and jobs/sec only with -strict-time, since wall-clock comparisons
// against a baseline recorded on different hardware (e.g. in CI) would
// be noise. See DESIGN.md, "Hot-path performance".
//
// Usage:
//
//	go run ./cmd/ashabench                  # full run, write + compare
//	go run ./cmd/ashabench -quick           # CI smoke: fewer reps
//	go run ./cmd/ashabench -strict-time     # also gate on ns/op, jobs/sec
//	go run ./cmd/ashabench -out /tmp/b.json -baseline BENCH_2026-07-28.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/remote"
	"repro/internal/searchspace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Metrics is one benchmark's recorded measurement.
type Metrics struct {
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	JobsPerSec  float64 `json:"jobs_per_sec,omitempty"`
}

// File is the BENCH_<date>.json schema.
type File struct {
	Schema     string             `json:"schema"`
	Date       string             `json:"date"`
	GoVersion  string             `json:"go"`
	Quick      bool               `json:"quick,omitempty"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// bench is one fixed-op-count benchmark. run executes ops operations and
// returns the number of simulated jobs completed (0 when not a cluster
// benchmark).
type bench struct {
	name string
	ops  int // full-mode operation count
	run  func(ops int) (jobs int64)
}

func benches(quick bool) []bench {
	scale := func(n int) int {
		if quick {
			n /= 5
			if n < 1 {
				n = 1
			}
		}
		return n
	}
	list := []bench{
		{
			// get_job/report pairs on a large live ASHA bracket — the
			// operation rate a 500-worker cluster demands.
			name: "asha-scheduler-throughput",
			ops:  scale(500000),
			run: func(ops int) int64 {
				benchW := workload.PTBLSTM()
				sched := core.NewASHA(core.ASHAConfig{
					Space: benchW.Space(), RNG: xrand.New(5), Eta: 4,
					MinResource: 1, MaxResource: benchW.MaxResource(),
				})
				rng := xrand.New(6)
				for i := 0; i < ops; i++ {
					job, _ := sched.Next()
					sched.Report(core.Result{
						TrialID: job.TrialID, Rung: job.Rung, Config: job.Config,
						Loss: rng.Float64(), Resource: job.TargetResource,
					})
				}
				return int64(ops)
			},
		},
		{
			// Straggler/drop handling on the constant-cost benchmark 1
			// space (exercises the retry queue and equal-time batching).
			name: "sim-25-workers-stragglers",
			ops:  scale(5),
			run: func(ops int) int64 {
				benchW := workload.CudaConvnet()
				var jobs int64
				for i := 0; i < ops; i++ {
					sched := core.NewASHA(core.ASHAConfig{
						Space: benchW.Space(), RNG: xrand.New(uint64(i) + 1), Eta: 4,
						MinResource: benchW.MaxResource() / 256, MaxResource: benchW.MaxResource(),
					})
					run := cluster.Run(sched, benchW.WithNoiseSeed(uint64(i)), cluster.Options{
						Workers: 25, MaxTime: 100, Seed: uint64(i), StragglerSD: 0.5, DropProb: 0.01,
					})
					jobs += int64(run.CompletedJobs)
				}
				return jobs
			},
		},
		{
			// Past-paper scale: 10,000 simulated workers on PTB under a
			// fixed job budget. The job budget (rather than a time
			// horizon) keeps the measured work constant per op; the
			// continuous cost spread keeps the calendar queue's ring and
			// far tiers busy.
			name: "sim-10k-workers",
			ops:  scale(5),
			run: func(ops int) int64 {
				benchW := workload.PTBLSTM()
				var jobs int64
				for i := 0; i < ops; i++ {
					sched := core.NewASHA(core.ASHAConfig{
						Space: benchW.Space(), RNG: xrand.New(uint64(i) + 1), Eta: 4,
						MinResource: 1, MaxResource: benchW.MaxResource(),
					})
					run := cluster.Run(sched, benchW.WithNoiseSeed(uint64(i)), cluster.Options{
						Workers: 10_000, MaxJobs: 200_000, Seed: uint64(i),
					})
					jobs += int64(run.CompletedJobs)
				}
				return jobs
			},
		},
		{
			// The 100k-worker regime on the constant-cost benchmark 1
			// space: every wave of same-duration jobs completes at one
			// instant, so the queue must batch 100k-event completion
			// groups instead of degenerating into 100k one-event Awaits.
			name: "sim-100k-workers",
			ops:  scale(2),
			run: func(ops int) int64 {
				benchW := workload.CudaConvnet()
				var jobs int64
				for i := 0; i < ops; i++ {
					sched := core.NewASHA(core.ASHAConfig{
						Space: benchW.Space(), RNG: xrand.New(uint64(i) + 1), Eta: 4,
						MinResource: benchW.MaxResource() / 256, MaxResource: benchW.MaxResource(),
					})
					run := cluster.Run(sched, benchW.WithNoiseSeed(uint64(i)), cluster.Options{
						Workers: 100_000, MaxJobs: 400_000, Seed: uint64(i),
					})
					jobs += int64(run.CompletedJobs)
				}
				return jobs
			},
		},
		{
			// One training job's full distributed round trip — lease
			// grant, checkpoint transport, report — over real loopback
			// with an in-process 4-slot worker agent driving the shared
			// engine on the binary streaming wire: one persistent
			// connection, length-prefixed frames carrying dense config
			// vectors and raw checkpoint bytes, grants of up to 512
			// prefetched 1024 deep with 2ms report flushes. Metrics on:
			// the counter path is atomics-only, and running the hot wire
			// with the scrape surface enabled keeps the "observability
			// is free" claim alloc-gated (bench/'s ashad-fleet runs it
			// with metrics off and owns the jobs/sec number).
			name: "binary-lease-throughput",
			ops:  scale(300000),
			run: func(ops int) int64 {
				space := searchspace.New(
					searchspace.Param{Name: "lr", Type: searchspace.LogUniform, Lo: 1e-4, Hi: 1},
					searchspace.Param{Name: "momentum", Type: searchspace.Uniform, Lo: 0, Hi: 1},
				)
				sched := core.NewASHA(core.ASHAConfig{
					Space: space, RNG: xrand.New(9), Eta: 4, MinResource: 1, MaxResource: 256,
				})
				srv, err := remote.NewServer(remote.Options{
					BatchSize: 512, Prefetch: 1024, FlushInterval: 2 * time.Millisecond,
					Metrics: true,
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "ashabench: remote server: %v\n", err)
					os.Exit(2)
				}
				obj := func(_ context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
					loss := 3.0
					if s, ok := state.(float64); ok {
						loss = s
					}
					floor := 0.1 + 0.2*cfg["momentum"]
					loss = floor + (loss-floor)*0.8
					return loss, loss, nil
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				agentDone := make(chan struct{})
				go func() {
					defer close(agentDone)
					_ = remote.ServeAgent(ctx, remote.AgentOptions{
						Server: srv.URL(), Slots: 4,
						Resolve: func(string) (exec.Objective, error) { return obj, nil },
					})
				}()
				run, err := backend.Drive(ctx, sched, remote.NewBackend(srv, 1024),
					backend.Options{MaxJobs: ops})
				if err != nil {
					fmt.Fprintf(os.Stderr, "ashabench: binary loopback run: %v\n", err)
					os.Exit(2)
				}
				cancel()
				<-agentDone
				return int64(run.CompletedJobs)
			},
		},
		{
			// Report-ingestion contention across the sharded lease table:
			// four binary-wire agents hammer one server with grants and
			// report batches concurrently, no scheduler in the loop (jobs
			// come straight from Submit), so the number isolates the
			// server's grant/settle fan-out — the path the 16-way shard
			// split parallelizes. A single-mutex lease table serializes
			// here regardless of cores.
			name: "sharded-report-contention",
			ops:  scale(200000),
			run: func(ops int) int64 {
				srv, err := remote.NewServer(remote.Options{
					BatchSize: 256, Prefetch: 512, FlushInterval: 2 * time.Millisecond,
					Metrics: true,
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "ashabench: remote server: %v\n", err)
					os.Exit(2)
				}
				obj := func(_ context.Context, cfg map[string]float64, from, to float64, state interface{}) (float64, interface{}, error) {
					return cfg["lr"], nil, nil
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				const agents = 4
				var agentsDone sync.WaitGroup
				agentsDone.Add(agents)
				for i := 0; i < agents; i++ {
					go func() {
						defer agentsDone.Done()
						_ = remote.ServeAgent(ctx, remote.AgentOptions{
							Server: srv.URL(), Slots: 2,
							Resolve: func(string) (exec.Objective, error) { return obj, nil },
						})
					}()
				}
				names := []string{"lr", "momentum"}
				var settled sync.WaitGroup
				settled.Add(ops)
				for i := 0; i < ops; i++ {
					srv.Submit(remote.JobPayload{
						Trial: i, Names: names, Vec: []float64{float64(i), 0.9}, To: 1,
					}, func(remote.Outcome) { settled.Done() })
				}
				settled.Wait()
				cancel()
				agentsDone.Wait()
				if err := srv.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "ashabench: server close: %v\n", err)
					os.Exit(2)
				}
				return int64(ops)
			},
		},
		{
			name: "fig1-promotion-table",
			ops:  scale(50),
			run:  experimentRunner("fig1"),
		},
		{
			name: "fig2-promotion-trace",
			ops:  scale(10),
			run:  experimentRunner("fig2"),
		},
		{
			name: "section32-speedup-claim",
			ops:  scale(5),
			run:  experimentRunner("speedup"),
		},
	}
	return list
}

func experimentRunner(id string) func(int) int64 {
	return func(ops int) int64 {
		for i := 0; i < ops; i++ {
			if _, err := experiments.Run(id, experiments.Options{}); err != nil {
				fmt.Fprintf(os.Stderr, "ashabench: experiment %s: %v\n", id, err)
				os.Exit(2)
			}
		}
		return 0
	}
}

// warmup populates the process-wide memoization caches (benchmark
// quality distributions, cost-normalization means, experiment setup)
// before anything is measured, so a benchmark's numbers reflect its
// steady-state hot path rather than whichever one-time construction it
// happened to trigger first. Without this, quick mode (fewer ops to
// amortize over) and full mode would disagree by construction cost.
func warmup() {
	workload.PTBLSTM()
	workload.CudaConvnet()
	for _, id := range []string{"fig1", "fig2", "speedup"} {
		if _, err := experiments.Run(id, experiments.Options{}); err != nil {
			fmt.Fprintf(os.Stderr, "ashabench: warmup %s: %v\n", id, err)
			os.Exit(2)
		}
	}
}

// measure runs b once end to end and returns its metrics. Allocation
// counts come from runtime.MemStats deltas; the benchmarks run on the
// calling goroutine and the harness is otherwise idle, so the deltas are
// the benchmark's own.
func measure(b bench) Metrics {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	jobs := b.run(b.ops)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	m := Metrics{
		Ops:         b.ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(b.ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(b.ops),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(b.ops),
	}
	if jobs > 0 && elapsed > 0 {
		m.JobsPerSec = float64(jobs) / elapsed.Seconds()
	}
	return m
}

// better keeps the faster of two samples (minimum ns/op, all metrics
// from that same sample for consistency).
func better(a, b Metrics) Metrics {
	if a.Ops == 0 || b.NsPerOp < a.NsPerOp {
		return b
	}
	return a
}

// findBaseline picks the lexically newest BENCH_*.json in dir, excluding
// the file about to be written.
func findBaseline(dir, exclude string) string {
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		if filepath.Base(matches[i]) != filepath.Base(exclude) {
			return matches[i]
		}
	}
	return ""
}

func loadFile(path string) (*File, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compare reports regressions of cur vs base beyond maxRegress
// (fractional). Allocation regressions always gate; time regressions
// gate only when strictTime is set. Returns the number of gating
// regressions.
func compare(base, cur *File, maxRegress float64, strictTime bool) int {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	failures := 0
	fmt.Printf("%-28s %14s %14s %10s\n", "benchmark vs baseline", "ns/op", "allocs/op", "jobs/sec")
	for _, name := range names {
		b, c := base.Benchmarks[name], cur.Benchmarks[name]
		ratio := func(cv, bv float64) string {
			if bv <= 0 {
				return "n/a"
			}
			return fmt.Sprintf("%+.1f%%", 100*(cv-bv)/bv)
		}
		fmt.Printf("%-28s %14s %14s %10s\n", name,
			ratio(c.NsPerOp, b.NsPerOp), ratio(c.AllocsPerOp, b.AllocsPerOp), ratio(c.JobsPerSec, b.JobsPerSec))
		// Near-zero allocs/op wiggle with slab amortization over the op
		// count (a 256-config slab contributes ~1/256 ≈ 0.004 allocs/op,
		// and quick mode's smaller op counts amortize growth differently).
		// An absolute floor of 0.05 allocs/op absorbs that noise while
		// still catching the smallest real regression — one reintroduced
		// heap allocation even every ~20 operations.
		if b.AllocsPerOp > 0 && c.AllocsPerOp > b.AllocsPerOp*(1+maxRegress) && c.AllocsPerOp-b.AllocsPerOp > 0.05 {
			fmt.Printf("  REGRESSION: %s allocs/op %.2f -> %.2f (>%.0f%%)\n", name, b.AllocsPerOp, c.AllocsPerOp, 100*maxRegress)
			failures++
		}
		if strictTime {
			if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+maxRegress) {
				fmt.Printf("  REGRESSION: %s ns/op %.0f -> %.0f (>%.0f%%)\n", name, b.NsPerOp, c.NsPerOp, 100*maxRegress)
				failures++
			}
			if b.JobsPerSec > 0 && c.JobsPerSec < b.JobsPerSec*(1-maxRegress) {
				fmt.Printf("  REGRESSION: %s jobs/sec %.0f -> %.0f (>%.0f%%)\n", name, b.JobsPerSec, c.JobsPerSec, 100*maxRegress)
				failures++
			}
		}
	}
	return failures
}

func main() {
	quick := flag.Bool("quick", false, "reduced repetitions (CI smoke)")
	samples := flag.Int("n", 2, "samples per benchmark (best is kept)")
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	baselinePath := flag.String("baseline", "", "baseline JSON (default: newest BENCH_*.json)")
	maxRegress := flag.Float64("max-regress", 0.30, "failure threshold as a fraction")
	strictTime := flag.Bool("strict-time", false, "gate on ns/op and jobs/sec, not only allocs/op")
	noWrite := flag.Bool("no-write", false, "skip writing the output file")
	only := flag.String("only", "", "run only benchmarks whose name contains this substring (implies -no-write)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the benchmark runs to this file")
	flag.Parse()

	if *quick && *samples > 1 {
		*samples = 1
	}
	date := time.Now().Format("2006-01-02")
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%s.json", date)
	}

	cur := &File{
		Schema:     "ashabench/v1",
		Date:       date,
		GoVersion:  runtime.Version(),
		Quick:      *quick,
		Benchmarks: make(map[string]Metrics),
	}
	if *only != "" {
		*noWrite = true
	}
	warmup()
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ashabench:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintln(os.Stderr, "ashabench:", err)
			os.Exit(2)
		}
	}
	for _, b := range benches(*quick) {
		if *only != "" && !strings.Contains(b.name, *only) {
			continue
		}
		var best Metrics
		for s := 0; s < *samples; s++ {
			best = better(best, measure(b))
		}
		cur.Benchmarks[b.name] = best
		extra := ""
		if best.JobsPerSec > 0 {
			extra = fmt.Sprintf("  %12.0f jobs/sec", best.JobsPerSec)
		}
		fmt.Printf("%-28s %12.0f ns/op %10.2f allocs/op %12.0f B/op%s\n",
			b.name, best.NsPerOp, best.AllocsPerOp, best.BytesPerOp, extra)
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		pf, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ashabench:", err)
			os.Exit(2)
		}
		if err := pprof.Lookup("allocs").WriteTo(pf, 0); err != nil {
			fmt.Fprintln(os.Stderr, "ashabench:", err)
			os.Exit(2)
		}
		pf.Close()
	}

	if !*noWrite {
		blob, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ashabench:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ashabench:", err)
			os.Exit(2)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}

	if *baselinePath == "" {
		*baselinePath = findBaseline(".", *out)
	}
	if *baselinePath == "" {
		fmt.Println("no baseline BENCH_*.json found; skipping comparison")
		return
	}
	base, err := loadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ashabench: baseline:", err)
		os.Exit(2)
	}
	fmt.Printf("\ncomparing against %s (recorded %s, %s)\n", *baselinePath, base.Date, base.GoVersion)
	if failures := compare(base, cur, *maxRegress, *strictTime); failures > 0 {
		fmt.Fprintf(os.Stderr, "ashabench: %d regression(s) beyond %.0f%%\n", failures, 100**maxRegress)
		os.Exit(1)
	}
	fmt.Println("no gating regressions")
}
