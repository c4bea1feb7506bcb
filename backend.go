package asha

import (
	"context"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/remote"
)

// Backend selects the execution substrate a run executes on. The same
// algorithm configuration runs unchanged on any backend — schedulers
// only ever see the shared engine's Next/Report contract. Implementations
// are the option structs below (GoroutinePool, Subprocess, Remote,
// Simulation). A Tuner takes any of them and a Manager a GoroutinePool
// or, under WithManagerRemote, a Remote; both default to GoroutinePool.
type Backend interface {
	// build starts the executor of one run, Tuner's or Manager's alike —
	// the only place either is built — and fills r's root, view and
	// base. A pool and a fleet give each experiment a lane view of its
	// own; a Subprocess or a Simulation is one lane with no view, which a
	// Tuner's one experiment runs on directly. base carries the budgets
	// the executor sets for every lane (the simulator's virtual-time
	// limit and resource cap). The engine drives the schedulers, so build
	// never sees one.
	build(ctx context.Context, r *mgrRun) error
}

// WithBackend selects the execution backend (default GoroutinePool).
func WithBackend(b Backend) Option { return func(t *Tuner) { t.m.backend = b } }

// GoroutinePool runs the objective on a pool of in-process goroutine
// workers — the default backend, suited to objectives written in Go that
// are cheap enough to share one OS process.
type GoroutinePool struct{}

func (GoroutinePool) build(ctx context.Context, r *mgrRun) error {
	for _, e := range r.exps {
		if e.spec.Objective == nil {
			return fmt.Errorf("asha: the goroutine backend requires an objective")
		}
	}
	pool := exec.NewPool(ctx, nil, r.m.workers)
	r.root = pool
	r.view = func(lane int, spec Experiment) backend.Backend {
		return pool.Lane(lane, exec.Objective(spec.Objective))
	}
	return nil
}

// Subprocess runs every training job in an isolated OS worker process
// speaking binary job frames on stdin/stdout — true parallelism
// beyond the Go scheduler and crash isolation: a worker that dies loses
// only its in-flight job, which the scheduler retries on a fresh
// process. The worker program typically calls ServeWorker with its
// training objective; training state must be JSON-serializable because
// it round-trips through the parent for checkpoint/resume and PBT
// inherits.
type Subprocess struct {
	// Command is the worker executable; Args its arguments.
	Command string
	Args    []string
	// Env entries ("KEY=VALUE") are appended to the parent's environment.
	Env []string
}

func (s Subprocess) build(ctx context.Context, r *mgrRun) (err error) {
	if s.Command == "" {
		return fmt.Errorf("asha: the subprocess backend requires a worker command")
	}
	r.root, err = exec.NewSubprocess(ctx, s.Command, s.Args, s.Env, r.m.workers)
	return err
}

// Remote runs training jobs on a distributed fleet of network workers:
// the tuning process embeds an HTTP job-lease server, and workers —
// separate processes, possibly on other machines — connect to it, lease
// jobs, heartbeat, and stream results back (see ServeRemoteWorker and
// cmd/ashaworker). The fleet is elastic: workers may join at any point
// of the run and immediately receive queued jobs, and a worker that
// crashes or drops off the network has its lease expire and its
// in-flight job retried on a surviving worker through the scheduler's
// usual retry path. The Tuner's objective is ignored — workers bring
// their own.
type Remote struct {
	// Listen is the TCP address the embedded lease server binds
	// (default "127.0.0.1:0"; use ":port" to accept remote workers).
	Listen string
	// Token, when non-empty, is a shared worker-auth secret every
	// worker must present.
	Token string
	// LeaseTTL is how long a leased job survives without a worker
	// heartbeat before it is requeued (default 15s). Under 30ms is
	// refused: workers beat every TTL/3, at least 10ms apart.
	LeaseTTL time.Duration
	// MaxLeases is the run's capacity, for a Tuner and a Manager alike:
	// both the cap on concurrently leased jobs and the engine's in-flight
	// budget, so no job waits on the server for a lease it cannot get.
	// 0 means the run's worker count (WithWorkers, WithManagerWorkers); a
	// negative value is refused before the server binds.
	MaxLeases int
	// BatchSize caps the jobs one grants or reports frame carries and is
	// the fleet-wide batch advertised to workers at
	// registration: a worker holds finished results up to FlushInterval
	// for that many. Unset (the default), nothing waits and nothing is
	// capped — a lease poll is granted what the worker has room for and a
	// result leaves as soon as it is done: ~55k jobs/sec over loopback to
	// 16 slots of a zero-cost objective (~30k when unset meant one job
	// per frame). Setting it, with Prefetch, amortizes the round trip
	// over many jobs: ~290k at BatchSize 256 / Prefetch 512.
	BatchSize int
	// Prefetch is the fleet-wide worker lookahead advertised at
	// registration: each worker keeps up to Prefetch leased jobs queued
	// locally ahead of its training slots, overlapping objective
	// execution with the next lease poll (default 0: no lookahead).
	// Every prefetched job holds its own lease, so expiry and
	// exactly-once semantics are unchanged.
	Prefetch int
	// FlushInterval is the fleet-wide report-flush deadline
	// advertised at registration: the longest a completed result waits
	// in a worker's report buffer for batch-mates (default 25ms;
	// workers also flush early on a full batch or an empty pipeline,
	// and with no BatchSize set never wait). It travels in whole
	// milliseconds, so a positive value under 1ms is refused.
	FlushInterval time.Duration
	// OnListen, if set, is called once with the server's base URL (e.g.
	// "http://127.0.0.1:8700") when the run is whole — every experiment
	// activated, every journal replayed, the control plane attached —
	// and before its first job: use it to learn a dynamically bound port
	// or to spawn workers. A run refused before then never calls it. It
	// runs on the engine goroutine, so it must not wait on an admin
	// answer: the engine takes commands only once it runs.
	OnListen func(url string)
	// Metrics enables GET /metrics on the embedded server: engine and
	// lease counters — granted/expired leases, batch sizes, rung
	// occupancy, incumbent loss — in Prometheus text format. Counters and
	// the queue, lease, drain and cap gauges are plain fields read in the
	// scrape's one hold of the server lock.
	Metrics bool
	// Events enables GET /v1/events: a streaming NDJSON feed of
	// run-lifecycle events (trial issued/completed/promoted/failed,
	// rung advances, new incumbents) from a bounded ring buffer. Slow
	// consumers are skipped forward with an explicit "dropped" record
	// instead of ever blocking the run.
	Events bool
	// EventBuffer is the event ring capacity (default 1024; ignored
	// without Events).
	EventBuffer int
	// AdminToken, when non-empty, enables the token-scoped /v1/admin
	// API driven by cmd/ashactl: pause/resume/abort the run, adjust the
	// worker budget, drain the fleet. Deliberately a separate secret
	// from the worker Token — operators and workers hold different
	// credentials.
	AdminToken string
	// StragglerK tunes straggler detection (needs Metrics): a settled
	// job whose exec time exceeds StragglerK × the rolling p95 of its
	// rung publishes a "straggler" event. Default 3.0.
	StragglerK float64
	// ShardID names this tuner process in a federated deployment; it is
	// surfaced on /metrics and admin status so operators can tell shards
	// apart. Empty for standalone runs.
	ShardID string
	// Coordinator, when set, makes a Manager federated shard ShardID of
	// the coordinator at this host:port (":port" is loopback): every
	// experiment starts dormant and the shard runs what the coordinator's
	// replies say it owns, adopting from journals (resumed if present,
	// under Run as under Resume). AdminToken is its credential. A Tuner
	// refuses it.
	Coordinator string
	// TenantTokens maps tenant namespace -> worker-auth secret: a worker
	// presenting a tenant's token may only lease and report jobs of
	// experiments named "<tenant>/...". The fleet-wide Token (if set)
	// remains valid and unscoped.
	TenantTokens map[string]string
	// TenantAdminTokens maps tenant namespace -> admin secret for
	// tenant-scoped admin access: status filtered to the tenant's
	// experiments, pause/resume/abort of them only.
	TenantAdminTokens map[string]string
}

func (rem Remote) build(_ context.Context, r *mgrRun) error {
	if rem.MaxLeases < 0 {
		return fmt.Errorf("asha: Remote.MaxLeases %d is negative; 0 means the worker count", rem.MaxLeases)
	}
	opts := remote.Options(rem)
	if opts.MaxLeases == 0 {
		opts.MaxLeases = r.m.workers
	}
	srv, err := remote.NewServer(opts)
	if err != nil {
		return fmt.Errorf("asha: starting remote lease server: %w", err)
	}
	fleet := remote.NewBackend(srv, opts.MaxLeases)
	r.root, r.bus = fleet, srv.EventBus()
	r.view = func(lane int, spec Experiment) backend.Backend { return fleet.Lane(lane, spec.Name) }
	return nil
}

// Simulation runs the tuning algorithm against a calibrated surrogate
// benchmark on the discrete-event cluster simulator: thousands of
// simulated worker-hours complete in milliseconds of wall-clock time,
// with optional straggler and job-drop injection (Appendix A.1). The
// Tuner's objective is ignored — the benchmark's surrogate learning
// curves stand in for training — and result times are in virtual
// benchmark time units.
type Simulation struct {
	// Benchmark is the surrogate workload (see NamedBenchmark). The
	// Tuner's space should be Benchmark.Space().
	Benchmark *Benchmark
	// StragglerSD, when > 0, multiplies each job's duration by 1+|z|,
	// z ~ N(0, StragglerSD).
	StragglerSD float64
	// DropProb is the per-time-unit probability a job is dropped.
	DropProb float64
	// MaxSimTime stops the run at this virtual time (0 = no limit).
	MaxSimTime float64
}

func (s Simulation) build(_ context.Context, r *mgrRun) error {
	if s.Benchmark == nil {
		return fmt.Errorf("asha: the simulation backend requires a benchmark")
	}
	// The engine drives the simulator as an executor; only Sim.Run, which
	// a Tuner never calls, would read a scheduler of the Sim's own.
	r.root = cluster.New(nil, s.Benchmark, cluster.Options{
		Workers:     r.m.workers,
		StragglerSD: s.StragglerSD,
		DropProb:    s.DropProb,
		MaxTime:     s.MaxSimTime,
		Seed:        r.exps[0].spec.Seed,
	})
	r.base = backend.Options{
		MaxTime:     s.MaxSimTime,
		MaxResource: s.Benchmark.MaxResource(),
	}
	return nil
}

// TrialIDFromContext reports the scheduler-assigned trial ID of the job
// an objective invocation is training, when called from inside an
// objective. Use it to key per-trial resources: checkpoint directories,
// log streams, deterministic noise.
func TrialIDFromContext(ctx context.Context) (int, bool) {
	return exec.TrialIDFromContext(ctx)
}
