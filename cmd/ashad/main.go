// Command ashad runs a manifest of named tuning experiments
// concurrently on a shared global worker budget and streams their
// progress — the multi-experiment counterpart of cmd/ashatune, built on
// asha.Manager's fair-share scheduler.
//
// Usage:
//
//	ashad -manifest experiments.json [-workers 16] [-progress 200] [-state-dir dir]
//	ashad -example              # print a sample manifest and exit
//
// With -state-dir every experiment is journaled (one append-only
// <name>.journal per experiment): rerunning the same command after a
// kill — even SIGKILL — resumes every experiment exactly where it died,
// relaunching its in-flight jobs and keeping all completed work. In
// remote mode, leases from the dead process are gone: reconnected
// workers lease the requeued jobs afresh and stale reports are
// rejected, so each job still counts exactly once.
//
// The manifest is JSON:
//
//	{
//	  "workers": 8,
//	  "experiments": [
//	    {
//	      "name": "cifar-asha",
//	      "algorithm": "asha",
//	      "eta": 4,
//	      "maxJobs": 2000,
//	      "seed": 1,
//	      "objective": "benchmark",
//	      "benchmark": "cifar-cnn"
//	    },
//	    {
//	      "name": "synthetic-bohb",
//	      "algorithm": "bohb",
//	      "maxJobs": 1500,
//	      "objective": "synthetic",
//	      "minResource": 1,
//	      "maxResource": 256,
//	      "space": [
//	        {"name": "lr", "type": "loguniform", "lo": 1e-5, "hi": 1},
//	        {"name": "width", "type": "choice", "choices": [64, 128, 256, 512]}
//	      ]
//	    }
//	  ]
//	}
//
// Objectives: "benchmark" tunes one of the paper's calibrated surrogate
// workloads (field "benchmark"; the experiment inherits the benchmark's
// search space and resource range unless overridden); "synthetic" tunes
// a fast deterministic multimodal test function over the given space.
//
// A manifest with a "remote" block serves the experiments to a
// distributed worker fleet instead of running them in-process: ashad
// embeds the HTTP job-lease server and workers (cmd/ashaworker, or any
// program calling asha.ServeRemoteWorker) connect, lease jobs and
// stream results back. Objectives then run worker-side — jobs carry
// their experiment's name so workers route them (ashaworker's
// -experiments flag):
//
//	{
//	  "workers": 8,
//	  "remote": {"listen": "127.0.0.1:8700", "token": "secret",
//	             "batchSize": 16, "prefetch": 8},
//	  "experiments": [...]
//	}
//
// batchSize/prefetch/flushMs set the fleet-wide batching defaults every
// worker adopts at registration: the cap on jobs per frame (unset: what
// the worker has room for, and results leave as they finish), local
// lookahead queue depth, and report-flush deadline. High-throughput
// fleets should raise batchSize and prefetch so one HTTP round trip
// moves many jobs (see DESIGN.md, "Batched leasing & worker
// pipelining").
//
// A manifest with a "federation" block splits the experiments across
// several tuner shard processes behind one coordinator (see DESIGN.md,
// "Federated control plane"):
//
//	{
//	  "workers": 8,
//	  "remote": {"token": "secret", "adminToken": "ops", "metrics": true,
//	             "events": true},
//	  "federation": {
//	    "coordinator": "127.0.0.1:8800",
//	    "shards": [
//	      {"id": "shard-a", "listen": "127.0.0.1:8701"},
//	      {"id": "shard-b", "listen": "127.0.0.1:8702"}
//	    ]
//	  },
//	  "experiments": [...]
//	}
//
// Run one `ashad -manifest m.json -coordinator` process and one
// `ashad -manifest m.json -shard <id>` per shard, all from the same
// manifest. The coordinator assigns each experiment an owning shard by
// rendezvous hashing, redirects registering workers to the right shard,
// and — when a shard stops beating — reassigns its experiments to the
// survivors. A shard runs exactly what its own beat replies say it
// owns, adopting from the journals (-state-dir
// on a shared directory makes the handoff lossless) and dropping what
// moved away; a shard whose last successful beat was sent a full TTL
// ago drops everything until contact resumes, before any survivor can
// be told to adopt (internal/remote/shard.go). Tenant namespaces
// ("team-a/exp"), per-tenant worker/admin tokens ("tenantTokens",
// "tenantAdminTokens") and fair-share quotas ("tenantQuotas") make one
// deployment safely multi-tenant.
//
// SIGINT/SIGTERM shut the run down gracefully: scheduling stops, the
// partial per-experiment incumbents are printed, and (in remote mode)
// connected workers are told the run is over.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	asha "repro"
	"repro/internal/remote"
)

// manifest is the top-level experiment file.
type manifest struct {
	// Workers is the shared global worker budget (default 8). In remote
	// mode it is the fleet's concurrent-lease cap.
	Workers int `json:"workers"`
	// Remote, when present, serves jobs to a worker fleet.
	Remote *remoteSpec `json:"remote,omitempty"`
	// TenantQuotas weights the dispatch fair share across tenant
	// namespaces (experiment name prefix before '/'); absent tenants
	// weigh 1.
	TenantQuotas map[string]int `json:"tenantQuotas,omitempty"`
	// Federation, when present, splits the experiments across several
	// tuner shards behind one coordinator (run with -coordinator or
	// -shard <id>).
	Federation  *fedSpec  `json:"federation,omitempty"`
	Experiments []expSpec `json:"experiments"`
}

// fedSpec describes a federated deployment: one coordinator plus a
// static set of tuner shards, all launched from this same manifest.
type fedSpec struct {
	// Coordinator is the coordinator's host:port.
	Coordinator string `json:"coordinator"`
	// Shards lists every tuner shard and its lease-server address.
	Shards []shardSpec `json:"shards"`
	// TTLMillis is the shard heartbeat liveness window in milliseconds
	// (default 5000): a shard silent this long is declared dead and its
	// experiments fail over to the survivors. Under 30 is refused.
	TTLMillis int `json:"ttlMs,omitempty"`
}

// shardSpec names one tuner shard.
type shardSpec struct {
	ID     string `json:"id"`
	Listen string `json:"listen"`
}

// remoteSpec configures the embedded job-lease server.
type remoteSpec struct {
	// Listen is the TCP address to serve on (e.g. ":8700").
	Listen string `json:"listen"`
	// Token is the shared worker-auth secret (optional).
	Token string `json:"token,omitempty"`
	// LeaseTTLMillis is the lease TTL in milliseconds (default 15000;
	// under 30 is refused).
	LeaseTTLMillis int `json:"leaseTTLms,omitempty"`
	// MaxLeases is both the lease cap and the engine's in-flight budget
	// across all experiments (default: workers).
	MaxLeases int `json:"maxLeases,omitempty"`
	// BatchSize caps the jobs a grants or reports frame carries and sets
	// the fleet-wide batch workers hold results for (default:
	// unset — a poll is granted what the worker has room for, a result
	// leaves when it is done).
	BatchSize int `json:"batchSize,omitempty"`
	// Prefetch is the fleet-wide worker lookahead: jobs each
	// worker keeps leased in its local queue ahead of its training
	// slots (default 0).
	Prefetch int `json:"prefetch,omitempty"`
	// FlushMillis is the fleet-wide report-flush deadline in
	// milliseconds (default 25 when unset or 0). The wire carries whole
	// milliseconds, so 1 is the least.
	FlushMillis int `json:"flushMs,omitempty"`
	// Metrics enables GET /metrics (Prometheus text format) on the
	// embedded server.
	Metrics bool `json:"metrics,omitempty"`
	// Events enables the GET /v1/events NDJSON stream (ashactl tail).
	Events bool `json:"events,omitempty"`
	// EventBuffer is the event ring capacity (default 1024).
	EventBuffer int `json:"eventBuffer,omitempty"`
	// AdminToken enables the /v1/admin API (ashactl pause/resume/abort/
	// workers/drain) under this bearer token — keep it distinct from the
	// worker token.
	AdminToken string `json:"adminToken,omitempty"`
	// StragglerK tunes straggler detection (needs Metrics): a settled
	// job whose exec time exceeds StragglerK × the rolling p95 of its
	// rung publishes a "straggler" event (default 3.0).
	StragglerK float64 `json:"stragglerK,omitempty"`
	// TenantTokens maps tenant namespace -> worker secret: workers
	// presenting it may only touch jobs of "<tenant>/..." experiments.
	TenantTokens map[string]string `json:"tenantTokens,omitempty"`
	// TenantAdminTokens maps tenant namespace -> admin secret scoped to
	// that tenant's experiments.
	TenantAdminTokens map[string]string `json:"tenantAdminTokens,omitempty"`
}

// expSpec is one experiment entry.
type expSpec struct {
	Name      string      `json:"name"`
	Algorithm string      `json:"algorithm"` // asha|sha|hyperband|async-hyperband|random|pbt|bohb|gp|model-asha
	Objective string      `json:"objective"` // benchmark|synthetic
	Benchmark string      `json:"benchmark,omitempty"`
	Space     []paramSpec `json:"space,omitempty"`
	MaxJobs   int         `json:"maxJobs"`
	Seed      uint64      `json:"seed,omitempty"`

	// DelayMillis sleeps this long before each job's objective call,
	// pacing a surrogate benchmark like real training — demos and
	// kill-tested soaks need runs that outlive their choreography.
	DelayMillis int `json:"delayMs,omitempty"`

	// Algorithm knobs (defaults in brackets).
	Eta           int     `json:"eta,omitempty"`           // [4]
	MinResource   float64 `json:"minResource,omitempty"`   // [1, or R/256 for benchmarks]
	MaxResource   float64 `json:"maxResource,omitempty"`   // [256, or the benchmark's R]
	EarlyStopRate int     `json:"earlyStopRate,omitempty"` // [0]
	N             int     `json:"n,omitempty"`             // SHA/BOHB bracket size [256]
	Population    int     `json:"population,omitempty"`    // PBT [20]
	Step          float64 `json:"step,omitempty"`          // PBT [R/32]
}

// paramSpec declares one hyperparameter.
type paramSpec struct {
	Name    string    `json:"name"`
	Type    string    `json:"type"` // uniform|loguniform|int|choice
	Lo      float64   `json:"lo,omitempty"`
	Hi      float64   `json:"hi,omitempty"`
	Choices []float64 `json:"choices,omitempty"`
}

const exampleManifest = `{
  "workers": 8,
  "experiments": [
    {
      "name": "cifar-asha",
      "algorithm": "asha",
      "maxJobs": 2000,
      "objective": "benchmark",
      "benchmark": "cifar-cnn"
    },
    {
      "name": "convnet-hyperband",
      "algorithm": "async-hyperband",
      "maxJobs": 2000,
      "objective": "benchmark",
      "benchmark": "cuda-convnet"
    },
    {
      "name": "synthetic-bohb",
      "algorithm": "bohb",
      "maxJobs": 1500,
      "objective": "synthetic",
      "minResource": 1,
      "maxResource": 256,
      "space": [
        {"name": "lr", "type": "loguniform", "lo": 1e-5, "hi": 1},
        {"name": "weight decay", "type": "loguniform", "lo": 1e-8, "hi": 0.01},
        {"name": "width", "type": "choice", "choices": [64, 128, 256, 512, 1024]},
        {"name": "warmup", "type": "uniform", "lo": 0, "hi": 0.5}
      ]
    }
  ]
}
`

func buildSpace(specs []paramSpec) (*asha.Space, error) {
	var params []asha.Param
	for _, p := range specs {
		switch p.Type {
		case "uniform":
			params = append(params, asha.Uniform(p.Name, p.Lo, p.Hi))
		case "loguniform":
			params = append(params, asha.LogUniform(p.Name, p.Lo, p.Hi))
		case "int":
			params = append(params, asha.Int(p.Name, int(p.Lo), int(p.Hi)))
		case "choice":
			params = append(params, asha.Choice(p.Name, p.Choices...))
		default:
			return nil, fmt.Errorf("parameter %q has unknown type %q", p.Name, p.Type)
		}
	}
	return asha.NewSpace(params...), nil
}

func buildAlgorithm(s expSpec) (asha.Algorithm, error) {
	eta := s.Eta
	if eta == 0 {
		eta = 4
	}
	r, R := s.MinResource, s.MaxResource
	switch s.Algorithm {
	case "asha":
		return asha.ASHA{Eta: eta, MinResource: r, MaxResource: R, EarlyStopRate: s.EarlyStopRate}, nil
	case "sha":
		n := s.N
		if n == 0 {
			n = 256
		}
		return asha.SHA{N: n, Eta: eta, MinResource: r, MaxResource: R, EarlyStopRate: s.EarlyStopRate}, nil
	case "hyperband":
		return asha.Hyperband{Eta: eta, MinResource: r, MaxResource: R}, nil
	case "async-hyperband":
		return asha.AsyncHyperband{Eta: eta, MinResource: r, MaxResource: R}, nil
	case "random":
		return asha.RandomSearch{MaxResource: R}, nil
	case "pbt":
		pop := s.Population
		if pop == 0 {
			pop = 20
		}
		step := s.Step
		if step == 0 {
			step = R / 32
		}
		return asha.PBT{Population: pop, Step: step, MaxResource: R}, nil
	case "bohb":
		n := s.N
		if n == 0 {
			n = 256
		}
		return asha.BOHB{N: n, Eta: eta, MinResource: r, MaxResource: R, EarlyStopRate: s.EarlyStopRate}, nil
	case "gp":
		return asha.GPOptimizer{MaxResource: R}, nil
	case "model-asha":
		return asha.ModelASHA{Eta: eta, MinResource: r, MaxResource: R, EarlyStopRate: s.EarlyStopRate}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", s.Algorithm)
	}
}

// syntheticObjective is a fast deterministic multimodal test function:
// the loss floor depends on the configuration's distance to a fixed
// optimum in the space's normalized encoding, and training decays the
// loss toward that floor over the resource range. State is the current
// loss (a float64), so it runs on every backend.
func syntheticObjective(space *asha.Space, maxResource float64) asha.Objective {
	return func(_ context.Context, cfg asha.Config, from, to float64, state interface{}) (float64, interface{}, error) {
		x := space.Encode(space.FromMap(cfg))
		floor := 0.05
		for i, v := range x {
			target := 0.5 + 0.35*math.Sin(float64(i+1))
			floor += 0.4 * math.Abs(v-target) / float64(len(x))
		}
		loss := 3.0
		if s, ok := state.(float64); ok {
			loss = s
		}
		loss = floor + (loss-floor)*math.Exp(-8*(to-from)/maxResource)
		return loss, loss, nil
	}
}

// buildExperiment lowers one manifest entry into a Manager experiment.
func buildExperiment(s expSpec) (asha.Experiment, error) {
	none := asha.Experiment{}
	var space *asha.Space
	var objective asha.Objective

	switch s.Objective {
	case "benchmark":
		bench, err := asha.NamedBenchmark(s.Benchmark)
		if err != nil {
			return none, err
		}
		space = bench.Space()
		if s.MaxResource == 0 {
			s.MaxResource = bench.MaxResource()
		}
		if s.MinResource == 0 {
			s.MinResource = bench.MaxResource() / 256
		}
		objective = asha.BenchmarkObjective(bench)
	case "synthetic":
		if len(s.Space) == 0 {
			return none, fmt.Errorf("a synthetic objective needs a space")
		}
		if s.MaxResource == 0 {
			s.MaxResource = 256
		}
		if s.MinResource == 0 {
			s.MinResource = 1
		}
		var err error
		if space, err = buildSpace(s.Space); err != nil {
			return none, err
		}
		objective = syntheticObjective(space, s.MaxResource)
	default:
		return none, fmt.Errorf("unknown objective %q (want benchmark or synthetic)", s.Objective)
	}
	if len(s.Space) > 0 && s.Objective == "benchmark" {
		return none, fmt.Errorf("benchmark experiments use the benchmark's own space; drop the space field")
	}

	if s.DelayMillis > 0 {
		base := objective
		d := time.Duration(s.DelayMillis) * time.Millisecond
		objective = func(ctx context.Context, cfg asha.Config, from, to float64, state interface{}) (float64, interface{}, error) {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			}
			return base(ctx, cfg, from, to, state)
		}
	}
	algo, err := buildAlgorithm(s)
	if err != nil {
		return none, err
	}
	return asha.Experiment{
		Name:      s.Name,
		Space:     space,
		Objective: objective,
		Algorithm: algo,
		Seed:      s.Seed,
		MaxJobs:   s.MaxJobs,
	}, nil
}

// runCoordinator serves the federation's coordinator tier until the
// context is cancelled.
func runCoordinator(ctx context.Context, mf *manifest) error {
	fed := mf.Federation
	ids := make([]string, 0, len(fed.Shards))
	for _, s := range fed.Shards {
		ids = append(ids, s.ID)
	}
	exps := make([]string, 0, len(mf.Experiments))
	for _, e := range mf.Experiments {
		exps = append(exps, e.Name)
	}
	coord, err := remote.NewCoordinator(remote.CoordinatorOptions{
		Listen:       fed.Coordinator,
		Shards:       ids,
		Experiments:  exps,
		ShardTTL:     time.Duration(fed.TTLMillis) * time.Millisecond,
		AdminToken:   mf.Remote.AdminToken,
		Token:        mf.Remote.Token,
		TenantTokens: mf.Remote.TenantTokens,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ashad: coordinator at %s routing %d experiments across %d shards\n",
		coord.URL(), len(exps), len(ids))
	<-ctx.Done()
	fmt.Printf("ashad: coordinator shutting down (%d failovers)\n", coord.Failovers())
	return coord.Close()
}

func main() {
	var (
		manifestPath = flag.String("manifest", "", "path to the experiment manifest (JSON)")
		workers      = flag.Int("workers", 0, "override the manifest's shared worker budget")
		progressEach = flag.Int("progress", 200, "stream a progress line every N completed jobs per experiment (0 = off)")
		stateDir     = flag.String("state-dir", "", "journal every experiment in this directory and resume on restart")
		example      = flag.Bool("example", false, "print a sample manifest and exit")
		coordinator  = flag.Bool("coordinator", false, "run the manifest's federation coordinator instead of a tuner")
		shard        = flag.String("shard", "", "run as this federation shard: serve only the experiments the coordinator assigns")
	)
	flag.Parse()

	if *example {
		fmt.Print(exampleManifest)
		return
	}
	if *manifestPath == "" {
		fmt.Fprintln(os.Stderr, "ashad: pass -manifest <file> (see -example)")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*manifestPath)
	if err != nil {
		log.Fatalf("ashad: %v", err)
	}
	var mf manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		log.Fatalf("ashad: parsing %s: %v", *manifestPath, err)
	}
	if *workers > 0 {
		mf.Workers = *workers
	}
	if mf.Workers == 0 {
		mf.Workers = 8
	}

	// SIGINT/SIGTERM cancel the run context: scheduling stops, in-flight
	// jobs drain, and the partial incumbents below still print instead
	// of the process dying mid-write.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *coordinator || *shard != "" {
		if mf.Federation == nil || mf.Federation.Coordinator == "" {
			log.Fatalf("ashad: -coordinator/-shard need a \"federation\" block naming the coordinator")
		}
		if mf.Remote == nil || mf.Remote.AdminToken == "" {
			log.Fatalf("ashad: a federated manifest needs remote.adminToken (shards authenticate to the coordinator with it)")
		}
	}
	if *coordinator {
		if *shard != "" {
			log.Fatalf("ashad: -coordinator and -shard are mutually exclusive")
		}
		if err := runCoordinator(ctx, &mf); err != nil {
			log.Fatalf("ashad: %v", err)
		}
		return
	}

	// A shard runs what its coordinator's replies say it owns.
	var coordAddr string
	shardID := *shard
	if shardID != "" {
		i := slices.IndexFunc(mf.Federation.Shards, func(s shardSpec) bool { return s.ID == shardID })
		if i < 0 || mf.Federation.Shards[i].Listen == "" {
			log.Fatalf("ashad: federation block has no shard %q with a listen address", shardID)
		}
		mf.Remote.Listen, coordAddr = mf.Federation.Shards[i].Listen, mf.Federation.Coordinator
	}

	opts := []asha.ManagerOption{asha.WithManagerWorkers(mf.Workers)}
	if *stateDir != "" {
		opts = append(opts, asha.WithManagerStateDir(*stateDir))
	}
	if len(mf.TenantQuotas) > 0 {
		opts = append(opts, asha.WithManagerTenantQuotas(mf.TenantQuotas))
	}
	if mf.Remote != nil {
		opts = append(opts, asha.WithManagerRemote(asha.Remote{
			Listen:            mf.Remote.Listen,
			Token:             mf.Remote.Token,
			LeaseTTL:          time.Duration(mf.Remote.LeaseTTLMillis) * time.Millisecond,
			MaxLeases:         mf.Remote.MaxLeases,
			BatchSize:         mf.Remote.BatchSize,
			Prefetch:          mf.Remote.Prefetch,
			FlushInterval:     time.Duration(mf.Remote.FlushMillis) * time.Millisecond,
			Metrics:           mf.Remote.Metrics,
			Events:            mf.Remote.Events,
			EventBuffer:       mf.Remote.EventBuffer,
			AdminToken:        mf.Remote.AdminToken,
			StragglerK:        mf.Remote.StragglerK,
			ShardID:           shardID,
			Coordinator:       coordAddr,
			TenantTokens:      mf.Remote.TenantTokens,
			TenantAdminTokens: mf.Remote.TenantAdminTokens,
			OnListen: func(url string) {
				fmt.Printf("ashad: serving the worker fleet at %s\n", url)
			},
		}))
	}
	if *progressEach > 0 {
		every := *progressEach
		opts = append(opts, asha.WithManagerProgress(func(p asha.ExperimentProgress) {
			if p.Completed%every == 0 && p.HasBest {
				fmt.Printf("  [%-20s] %6d jobs  incumbent %.4f\n", p.Experiment, p.Completed, p.BestLoss)
			}
		}))
	}
	mgr := asha.NewManager(opts...)
	for _, s := range mf.Experiments {
		e, err := buildExperiment(s)
		if err != nil {
			log.Fatalf("ashad: experiment %q: %v", s.Name, err)
		}
		if err := mgr.Add(e); err != nil {
			log.Fatalf("ashad: %v", err)
		}
	}

	fmt.Printf("ashad: running %d experiments on %d shared workers\n", len(mf.Experiments), mf.Workers)
	var results map[string]*asha.Result
	if *stateDir != "" {
		// Resume-on-restart: every experiment with a journal in -state-dir
		// continues where it died; the rest start fresh.
		fmt.Printf("ashad: durable state in %s (kill and rerun to resume)\n", *stateDir)
		results, err = mgr.Resume(ctx)
	} else {
		results, err = mgr.Run(ctx)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ashad: %v\n", err)
	}
	if ctx.Err() != nil {
		fmt.Println("\nashad: interrupted — reporting partial results")
	}

	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\n%-22s %10s %8s %12s %10s\n", "experiment", "best loss", "jobs", "resource", "configs")
	for _, n := range names {
		r := results[n]
		fmt.Printf("%-22s %10.4f %8d %12.0f %10d\n", n, r.BestLoss, r.CompletedJobs, r.TotalResource, r.Trials)
	}
	if err != nil {
		os.Exit(1)
	}
}
