// Command ashaworker is a fleet worker: it connects to a tuning
// process's job-lease server (a Tuner's Remote backend, or cmd/ashad
// serving a remote manifest), leases training jobs, heartbeats, and
// streams results back. Workers are elastic — start as many as you
// like, whenever you like, on any machine that can reach the server;
// one that is killed mid-job has its lease expire and the job retried
// on a surviving worker.
//
// The built-in objectives train the paper's calibrated surrogate
// benchmarks. -benchmark names the default objective; -experiments maps
// named experiments of a manifest fleet to their benchmarks. Custom Go
// objectives embed the same agent via asha.ServeRemoteWorker.
//
// Usage:
//
//	ashaworker -server http://tuner:8700 -benchmark cifar-cnn [-slots 4]
//	ashaworker -server http://tuner:8700 -token secret \
//	           -experiments "cifar-asha=cifar-cnn,lstm-hb=ptb-lstm"
//
// The lease/report batching pipeline runs at the fleet-wide settings the
// server advertises at registration (asha.Remote{BatchSize, Prefetch,
// FlushInterval}, or ashad's "remote" manifest block).
//
// The worker speaks the binary streaming wire: one persistent
// connection multiplexing lease grants, report batches and heartbeats
// as dense binary frames. Server and worker must be built from the same
// protocol version; a mismatch is refused by name at registration.
//
// The worker stage-times every job on its monotonic clock — dequeue
// dwell, execution, report-buffer wait — and ships the durations with
// each report (plus measured heartbeat round trips), so a
// metrics-enabled server can attribute latency per stage (ashactl
// latency / trace).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	asha "repro"
	"repro/internal/curve"
	"repro/internal/workload"
)

// paced wraps an objective with a fixed pre-training sleep so a
// microsecond surrogate exercises the fleet like a real workload.
func paced(obj asha.Objective, d time.Duration) asha.Objective {
	return func(ctx context.Context, cfg asha.Config, from, to float64, state interface{}) (float64, interface{}, error) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
		return obj(ctx, cfg, from, to, state)
	}
}

// benchObjective adapts a surrogate benchmark for the remote wire: its
// checkpoint is a small JSON object, so a trial can migrate between
// workers mid-run. Live trials are cached per trial ID, and a trial
// whose checkpoint resumes somewhere else than the cached position —
// because its previous job ran on another worker — is rebuilt from the
// wire checkpoint.
func benchObjective(b *asha.Benchmark) asha.Objective {
	var mu sync.Mutex
	live := make(map[int]*workload.Trial)
	return func(ctx context.Context, cfg asha.Config, from, to float64, state interface{}) (float64, interface{}, error) {
		id, _ := asha.TrialIDFromContext(ctx)
		vcfg := b.Space().FromMap(cfg)
		mu.Lock()
		t := live[id]
		if t == nil || math.Abs(t.Resource()-from) > 1e-9 {
			t = b.NewTrial(id, vcfg)
			if chk, ok := state.(map[string]interface{}); ok {
				res, _ := chk["resource"].(float64)
				loss, _ := chk["loss"].(float64)
				handicap, _ := chk["handicap"].(float64)
				t.Restore(workload.TrialState{
					Curve:    curve.State{Resource: res, Loss: loss},
					Handicap: handicap,
				})
			}
			live[id] = t
		}
		mu.Unlock()
		if !t.Config().Equal(vcfg) {
			t.SetConfig(vcfg)
		}
		dr := to - t.Resource()
		if dr < 0 {
			dr = 0
		}
		loss := t.Train(dr)
		chk := t.Checkpoint()
		return loss, map[string]interface{}{
			"resource": chk.Curve.Resource,
			"loss":     chk.Curve.Loss,
			"handicap": chk.Handicap,
		}, nil
	}
}

func main() {
	var (
		server      = flag.String("server", "", "lease server base URL, e.g. http://tuner:8700")
		token       = flag.String("token", "", "shared worker-auth token")
		name        = flag.String("name", "", "worker name reported to the server")
		slots       = flag.Int("slots", 1, "concurrent training jobs")
		delay       = flag.Duration("delay", 0, "sleep per job before training, pacing surrogate benchmarks like real work")
		benchName   = flag.String("benchmark", "", "default surrogate benchmark objective (see -list)")
		experiments = flag.String("experiments", "", "per-experiment objectives as name=benchmark[,name=benchmark...]")
		list        = flag.Bool("list", false, "list built-in benchmarks and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range asha.BenchmarkNames() {
			fmt.Println(n)
		}
		return
	}
	if *server == "" {
		fmt.Fprintln(os.Stderr, "ashaworker: pass -server <url>")
		os.Exit(2)
	}
	w := asha.RemoteWorker{Server: *server, Token: *token, Name: *name, Slots: *slots}
	if *benchName != "" {
		bench, err := asha.NamedBenchmark(*benchName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ashaworker: %v\n", err)
			os.Exit(2)
		}
		// One objective instance per experiment name: experiments reuse
		// trial IDs, so sharing one trial cache across them would graft
		// one experiment's training state onto another's.
		var mu sync.Mutex
		perExperiment := make(map[string]asha.Objective)
		w.ObjectiveFor = func(experiment string) asha.Objective {
			mu.Lock()
			defer mu.Unlock()
			obj, ok := perExperiment[experiment]
			if !ok {
				obj = benchObjective(bench)
				perExperiment[experiment] = obj
			}
			return obj
		}
	}
	if *experiments != "" {
		w.Objectives = make(map[string]asha.Objective)
		for _, pair := range strings.Split(*experiments, ",") {
			exp, benchmark, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "ashaworker: bad -experiments entry %q (want name=benchmark)\n", pair)
				os.Exit(2)
			}
			bench, err := asha.NamedBenchmark(benchmark)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ashaworker: experiment %q: %v\n", exp, err)
				os.Exit(2)
			}
			w.Objectives[exp] = benchObjective(bench)
		}
	}
	if w.ObjectiveFor == nil && len(w.Objectives) == 0 {
		fmt.Fprintln(os.Stderr, "ashaworker: pass -benchmark and/or -experiments to select objectives")
		os.Exit(2)
	}
	if *delay > 0 {
		for exp, obj := range w.Objectives {
			w.Objectives[exp] = paced(obj, *delay)
		}
		if next := w.ObjectiveFor; next != nil {
			w.ObjectiveFor = func(experiment string) asha.Objective {
				return paced(next(experiment), *delay)
			}
		}
	}

	// SIGINT/SIGTERM stop leasing and exit; any in-flight lease then
	// expires server-side and the job is retried on a surviving worker.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("ashaworker: serving %d slot(s) to %s\n", *slots, *server)
	if err := asha.ServeRemoteWorker(ctx, w); err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "ashaworker: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("ashaworker: done")
}
