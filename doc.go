// Package asha is a Go implementation of ASHA — the Asynchronous
// Successive Halving Algorithm from "A System for Massively Parallel
// Hyperparameter Tuning" (Li et al., MLSys 2020) — together with the
// full family of tuning methods the paper evaluates: synchronous
// Successive Halving, Hyperband (synchronous and asynchronous), random
// search, Population Based Training, BOHB, a Vizier-like GP optimizer
// and a Fabolas-like multi-fidelity GP optimizer.
//
// The public API centers on the Tuner, which runs any of these
// algorithms over a user-supplied training objective on a pool of
// goroutine workers:
//
//	space := asha.NewSpace(
//		asha.LogUniform("lr", 1e-5, 1),
//		asha.Choice("batch", 32, 64, 128),
//	)
//	tuner := asha.New(space, objective, asha.ASHA{
//		Eta:         4,
//		MinResource: 1,
//		MaxResource: 256,
//	}, asha.WithWorkers(8))
//	result, err := tuner.Run(ctx)
//
// The objective is called asynchronously with (config, fromResource,
// toResource, state) and must resume training from its last checkpoint
// state — exactly the run_then_return_val_loss contract of the paper.
//
// Execution is pluggable: WithBackend swaps where jobs run without
// touching the algorithm configuration. GoroutinePool (the default)
// trains in-process; Subprocess isolates every job in an OS worker
// process speaking binary job frames (see ServeWorker); Remote serves
// jobs to an elastic distributed fleet over an embedded HTTP job-lease
// server — workers join at any time via ServeRemoteWorker or
// cmd/ashaworker, a worker lost mid-job has its lease expire and the
// job retried on a survivor, and short-job fleets batch the wire with
// Remote{BatchSize, Prefetch, FlushInterval} (many jobs per HTTP round
// trip, pipelined worker-side, per-job leases intact) — new workers
// against a new server further upgrade, automatically, to a binary
// streaming wire that multiplexes grants, reports and heartbeats as
// dense frames over one persistent connection per worker; Simulation
// replays the paper's
// distributed conditions — hundreds of workers, stragglers, dropped
// jobs — on a discrete-event virtual clock over a calibrated surrogate
// benchmark (see NamedBenchmark). All backends are driven by one
// engine, so promotion decisions are identical across them for a fixed
// seed and a deterministic objective.
//
// Manager runs many named tuning experiments concurrently on a shared
// global worker budget with fair-share scheduling — each experiment is
// one more scheduler on the same engine a Tuner runs on; cmd/ashad is
// its command-line front end, driven by a JSON manifest. With
// WithManagerRemote the manager serves all of its experiments to one
// worker fleet.
//
// Runs are durable with WithStateDir (WithManagerStateDir for
// managers): every scheduler decision is written ahead to an
// append-only journal with periodic snapshots of trial checkpoints,
// and Tuner.Resume / Manager.Resume continue a killed run exactly
// where it died — completed work is replayed, not re-run, and the
// resumed run makes bit-identical promotion decisions to an
// uninterrupted one at the same seed.
//
// Fleet runs carry an opt-in observability-and-operations plane on the
// embedded lease server, Remote{Metrics, Events, AdminToken}: GET
// /metrics exports Prometheus counters and gauges (plain fields read in
// the scrape's one hold of the server lock) and per-experiment rung
// occupancy, GET /v1/events streams lifecycle events (trial
// issued/completed/promoted, rung advances, new incumbents) as NDJSON,
// and the token-scoped /v1/admin API — cmd/ashactl is its CLI —
// pauses, resumes or aborts experiments, resizes the shared worker
// budget, and drains the fleet while the run is live. Pausing stops lease grants while in-flight jobs finish;
// a run paused to zero activity parks and continues on resume.
//
// With Metrics on, every settled job is stage-timed end to end: queue
// wait on the server, then worker-measured dwell/exec/report-buffer
// durations shipped back with each report, then the settle residual.
// /metrics exports the stages as Prometheus histograms, GET /v1/trace
// serves recent per-job spans (ashactl latency / trace render both),
// and jobs slower than Remote.StragglerK × their rung's rolling p95
// surface as straggler events on /v1/events.
//
// The repository also contains the paper's full experimental harness:
// every table and figure of the evaluation section can be regenerated
// with cmd/ashaexp (see DESIGN.md and EXPERIMENTS.md), and cmd/ashasim
// replays any journaled run's fitted workload against hypothetical
// fleet sizes, straggler spreads and drop rates for capacity planning.
package asha
