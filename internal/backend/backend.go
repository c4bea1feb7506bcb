// Package backend defines the pluggable execution layer that separates
// *what* to run (a core.Scheduler deciding jobs and promotions) from
// *where* to run it (a Backend executing training jobs). One
// single-threaded Engine (engine.go) owns the schedulers — one per lane;
// Drive is its one-lane case, asha.Manager its many-lane one — the
// bookkeeping common to every substrate, and the journal/metrics/event
// path; backends only execute jobs and deliver completions.
//
// Four backends implement the interface today:
//
//   - internal/exec.Pool        — a goroutine worker pool calling an
//     in-process Go objective (the default for the public Tuner);
//   - internal/exec.Subprocess  — a pool of OS worker processes speaking
//     the binary job codec over stdin/stdout, giving crash isolation and
//     true parallelism for real workloads;
//   - internal/remote.Backend   — a distributed fleet of elastic network
//     workers leasing jobs from an embedded HTTP server, with
//     crash-tolerant retry via lease expiry;
//   - internal/cluster.Sim      — the paper's discrete-event cluster
//     simulator on a virtual clock.
//
// Because every backend is driven by the same engine, simulated and real
// runs share one result-ingestion and metrics path, and promotion
// decisions depend only on the scheduler and the completion order the
// backend produces — the property the backend-parity tests pin down.
package backend

import (
	"context"
	"encoding/json"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/searchspace"
	"repro/internal/state"
)

// Completion reports one finished training job back to the engine.
type Completion struct {
	// Job is the job handed to Launch.
	Job core.Job
	// Lane is the id of the lane view the job was launched through
	// (zero on executors that serve a single scheduler).
	Lane int
	// Loss is the observed validation loss at Resource; TrueLoss is the
	// noiseless loss when the backend knows it (real backends set it
	// equal to Loss).
	Loss     float64
	TrueLoss float64
	// Resource is the cumulative resource the trial reached.
	Resource float64
	// Time is the completion time on the backend's clock, in the
	// backend's time unit (wall-clock seconds for real backends, virtual
	// time for the simulator).
	Time float64
	// Failed marks a dropped job: the backend rolled the trial back and
	// the scheduler may retry it. Loss is meaningless.
	Failed bool
	// Err is a fatal objective error; it fails the job's lane (with one
	// lane, the run).
	Err error
}

// Stats is the backend's end-of-run trial accounting.
type Stats struct {
	// Trials is the number of distinct configurations started.
	Trials int
	// TotalResource sums the training resource retained across trials.
	TotalResource float64
	// ConfigsToR counts trials trained to the backend's known maximum
	// resource (0 when the backend has no such notion).
	ConfigsToR int
}

// Backend executes training jobs on some substrate. Implementations are
// not required to be safe for concurrent use: the engine calls every
// method from a single goroutine.
type Backend interface {
	// Capacity is the number of jobs the backend runs concurrently. The
	// engine never has more than Capacity jobs in flight.
	Capacity() int
	// Launch starts a job. The backend owns trial state (the real
	// executors keep it in a Trials table): it resolves the trial's
	// current resource, checkpoint state and any InheritFrom donor.
	// Exactly one Completion must eventually be produced per Launch.
	Launch(job core.Job)
	// Await blocks until at least one launched job finishes and returns
	// every completion available without further waiting (real backends
	// drain their result channel; the simulator returns all events
	// sharing the next virtual-clock instant as one batch, ordered FIFO
	// by launch sequence within the instant — so same-instant completion
	// waves cost one engine round trip and batch contents are
	// deterministic). The returned slice may be reused by the
	// next Await call. An empty, error-free batch means the backend can
	// complete nothing more (e.g. the simulated clock expired) and the
	// run must stop. A context error stops the run cleanly.
	Await(ctx context.Context) ([]Completion, error)
	// Now is the current time on the backend's clock.
	Now() float64
	// Close stops the backend: it must release workers and roll back any
	// in-flight trial state so Stats only sees completed work. Close is
	// called exactly once, before Stats.
	Close() error
	// Stats returns the final trial accounting.
	Stats() Stats
}

// TrialCheckpointer is the optional durability surface of a backend:
// backends that keep JSON-serializable trial checkpoints (the goroutine
// pool, the subprocess pool, the remote fleet) expose them for journal
// snapshots and accept them back on resume. Trials is its one
// implementation, which those three embed and a resume moves its table
// into whole (AddLane); a wrapper that forwards to one is given it
// through RestoreTrial. The simulator does not implement it — surrogate
// trials have no state worth persisting. Both methods are called from
// the engine goroutine only.
type TrialCheckpointer interface {
	// SnapshotTrials streams to fn the last committed cumulative resource
	// and checkpoint of every trial for which either changed since the
	// previous call — by a completion, by the Close that commits in-flight
	// results, or by inheriting a donor's at Launch — each trial once.
	// State may be nil when a trial's checkpoint is not serializable; the
	// trial then restarts from zero on resume, like a crashed worker's.
	SnapshotTrials(fn func(trial int, resource float64, state json.RawMessage))
	// RestoreTrial seeds one trial's committed state before any Launch.
	// It does not count as a change: the state came out of the journal.
	RestoreTrial(trial int, resource float64, state json.RawMessage)
}

// DefaultSnapshotEvery is the default completion count between journal
// snapshots.
const DefaultSnapshotEvery = 64

// Options bound and observe an engine run.
type Options struct {
	// MaxJobs stops issuing work after this many launched jobs
	// (0 = no limit).
	MaxJobs int
	// MaxTime stops issuing work once the backend clock reaches this
	// value (0 = no limit). In-flight work past the horizon is discarded
	// by the backend.
	MaxTime float64
	// MaxResource, when > 0, enables FirstRTime accounting: the run
	// records the first completion whose trial reached MaxResource.
	MaxResource float64
	// StopAtFirstR ends the run as soon as any trial reaches MaxResource.
	StopAtFirstR bool
	// Evaluator optionally overrides the test metric recorded for the
	// incumbent (Appendix A.2 offline validation). Nil records the
	// incumbent's noiseless loss.
	Evaluator func(cfg searchspace.Config) float64
	// OnResult, if set, is invoked after every successful completion with
	// the scheduler's current incumbent. It runs on the engine goroutine.
	OnResult func(res core.Result, best core.Best, ok bool)
	// Journal, when non-nil, receives a write-ahead record of every
	// scheduler decision: each fill's issued jobs are flushed to it before
	// the first of them launches, each batch's results before the first
	// of them is reported to the scheduler, and what changed in the
	// backend's trial table is snapshotted every SnapshotEvery
	// completions plus once at a clean end of run. A journal flush
	// failure aborts the run — continuing would leave scheduler state the
	// journal cannot replay.
	Journal *state.Journal
	// SnapshotEvery is the completion count between journal snapshots
	// (default DefaultSnapshotEvery; ignored without Journal).
	SnapshotEvery int
	// Resume, when non-nil, continues a journaled run reconstructed by
	// Replay: the restored counters seed the returned metrics, the
	// backend's trial table is restored before any launch, journaled
	// in-flight jobs are relaunched without new issue records, and the
	// run clock continues from the journal's maximum time.
	Resume *ResumeState
	// Gate, when non-nil, is the live-control gate wrapped around the
	// scheduler being driven; Lane.Pause/Resume/Abort flip it. The engine
	// consults it at the drain point: a pause that empties the in-flight
	// set parks the engine on its control queue instead of ending the
	// run, so an operator can pause a run to zero activity and later
	// resume it.
	Gate *core.Gate
	// Events, when non-nil, receives the run's lifecycle events
	// (trial issued/completed/failed/promoted, rung advances, new
	// incumbents) for the /v1/events stream. Publishing is lock-light
	// and never blocks the engine on slow consumers.
	Events *obs.Bus
	// Experiment stamps published events with an experiment name
	// (ignored without Events).
	Experiment string
}

// Drive runs sched on b until the context is cancelled, budgets are
// exhausted, the scheduler finishes, or the backend can complete nothing
// more: the one-lane case of the Engine, where b is both the executor
// and the lane's view of it. The returned run is always non-nil.
func Drive(ctx context.Context, sched core.Scheduler, b Backend, opt Options) (*metrics.Run, error) {
	e := NewEngine(b, nil)
	l := e.AddLane(sched, b, opt, 0, "")
	err := e.Run(ctx)
	if l.err != nil {
		err = l.err
	}
	return l.run, err
}

// emitter publishes the engine's lifecycle events to an obs.Bus. All
// methods run on the engine goroutine and are no-ops without a bus, so
// runs without /v1/events pay only a nil check.
type emitter struct {
	bus     *obs.Bus
	exp     string
	maxRung int
	hasBest bool
	best    float64
}

// launched announces an issued job, a promotion when the job inherits
// another trial's state, and the first time the run reaches a new rung.
func (em *emitter) launched(job core.Job) {
	if em.bus == nil {
		return
	}
	em.bus.Publish(obs.Event{
		Type:       obs.EventIssued,
		Experiment: em.exp,
		Trial:      job.TrialID,
		Rung:       job.Rung,
		Resource:   job.TargetResource,
	})
	if job.InheritFrom >= 0 {
		em.bus.Publish(obs.Event{
			Type:       obs.EventPromoted,
			Experiment: em.exp,
			Trial:      job.TrialID,
			Rung:       job.Rung,
		})
	}
	if job.Rung > em.maxRung {
		em.maxRung = job.Rung
		em.bus.Publish(obs.Event{
			Type:       obs.EventRungAdvance,
			Experiment: em.exp,
			Rung:       job.Rung,
		})
	}
}

// reported announces a settled job and, when the incumbent improved,
// the new incumbent.
func (em *emitter) reported(c Completion, best core.Best, ok bool) {
	if em.bus == nil {
		return
	}
	if c.Failed {
		em.bus.Publish(obs.Event{
			Type:       obs.EventFailed,
			Experiment: em.exp,
			Trial:      c.Job.TrialID,
			Rung:       c.Job.Rung,
		})
		return
	}
	em.bus.Publish(obs.Event{
		Type:       obs.EventCompleted,
		Experiment: em.exp,
		Trial:      c.Job.TrialID,
		Rung:       c.Job.Rung,
		Loss:       c.Loss,
		Resource:   c.Resource,
	})
	if ok && (!em.hasBest || best.Loss < em.best) {
		em.hasBest, em.best = true, best.Loss
		em.bus.Publish(obs.Event{
			Type:       obs.EventIncumbent,
			Experiment: em.exp,
			Trial:      best.TrialID,
			Loss:       best.Loss,
			Resource:   best.Resource,
		})
	}
}

// reachedR keeps the first time a successful completion reached the
// maximum resource.
func (l *Lane) reachedR(resource, time float64) {
	if l.opt.MaxResource > 0 && resource >= l.opt.MaxResource-1e-9 && time < l.run.FirstRTime {
		l.run.FirstRTime = time
	}
}

// ingest delivers one completion to its lane's scheduler and records
// metrics — the single result path shared by simulated and real runs,
// live and replayed.
func ingest(l *Lane, c Completion) {
	if c.Failed {
		l.run.FailedJobs++
		l.sched.Report(core.Result{
			TrialID:  c.Job.TrialID,
			Rung:     c.Job.Rung,
			Config:   c.Job.Config,
			Loss:     math.NaN(),
			TrueLoss: math.NaN(),
			Resource: 0,
			Failed:   true,
			Time:     c.Time,
		})
		l.em.reported(c, core.Best{}, false)
		return
	}
	l.run.CompletedJobs++
	for len(l.rungCompleted) <= c.Job.Rung {
		l.rungCompleted = append(l.rungCompleted, 0)
	}
	l.rungCompleted[c.Job.Rung]++
	l.reachedR(c.Resource, c.Time)
	res := core.Result{
		TrialID:  c.Job.TrialID,
		Rung:     c.Job.Rung,
		Config:   c.Job.Config,
		Loss:     c.Loss,
		TrueLoss: c.TrueLoss,
		Resource: c.Resource,
		Time:     c.Time,
	}
	l.sched.Report(res)
	best, ok := l.sched.Best()
	if ok {
		test := best.TrueLoss
		if l.opt.Evaluator != nil {
			test = l.opt.Evaluator(best.Config)
		}
		l.run.Record(c.Time, best.Loss, test)
	}
	l.em.reported(c, best, ok)
	if l.opt.OnResult != nil {
		l.opt.OnResult(res, best, ok)
	}
}
