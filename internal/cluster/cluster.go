// Package cluster is a discrete-event simulator of a parallel worker
// pool running a hyperparameter tuning scheduler over a surrogate
// workload. It reproduces the distributed conditions the paper studies —
// many workers, straggler variance in training times, and dropped jobs —
// on a virtual clock, so 500-worker multi-week experiments (Section 4.3)
// run in milliseconds.
//
// The simulator implements backend.Backend: it is driven by the same
// engine (backend.Drive) as the real goroutine-pool and subprocess
// backends, so simulated and real runs share one scheduler-interleaving,
// result-ingestion and metrics path. Only job execution differs — here a
// surrogate workload.Trial trains instantly and completion events fire
// on a virtual clock.
//
// Stragglers and drops follow Appendix A.1 exactly: each job's duration
// is multiplied by (1 + |z|) with z ~ N(0, StragglerSD), and jobs are
// dropped at each time unit with probability DropProb (simulated in
// continuous time as an exponential drop clock with rate -ln(1-p)).
package cluster

import (
	"context"
	"math"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/searchspace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Options configures a simulated run.
type Options struct {
	// Workers is the number of parallel workers (>= 1).
	Workers int
	// StragglerSD is the standard deviation of the straggler
	// multiplier's normal; 0 disables stragglers.
	StragglerSD float64
	// DropProb is the per-time-unit job drop probability; 0 disables
	// drops.
	DropProb float64
	// MaxTime stops the run at this virtual time; events beyond it are
	// discarded. 0 means no time limit.
	MaxTime float64
	// MaxJobs stops issuing work after this many jobs. 0 means no
	// limit.
	MaxJobs int
	// Seed drives straggler and drop randomness.
	Seed uint64
	// StopAtFirstR ends the run as soon as any configuration has been
	// trained to the benchmark's maximum resource (used by the Figure 8
	// time-to-first-R experiment).
	StopAtFirstR bool
	// Evaluator optionally overrides the test metric recorded for the
	// incumbent (e.g. evaluating the incumbent's configuration at full
	// resource, as Appendix A.2's offline validation does for
	// model-based incumbents). When nil, the incumbent's noiseless loss
	// at its observed resource is recorded.
	Evaluator func(cfg searchspace.Config) float64
	// RecordTrace keeps a per-job event log (start, end, rung,
	// resources, outcome) on the returned run — the raw material for
	// Figure 2-style chronological job charts. Off by default because
	// large simulations produce hundreds of thousands of jobs.
	RecordTrace bool
}

// JobEvent is one traced job execution.
type JobEvent struct {
	TrialID  int
	Rung     int
	Start    float64
	End      float64
	From, To float64 // cumulative resource before/after
	Failed   bool
}

// event is a scheduled job completion (or failure).
type event struct {
	time float64
	// seq orders events that share an exact completion time: first
	// scheduled completes first. Continuous costs make exact ties rare,
	// but constant-cost benchmarks produce them in bulk, and FIFO makes
	// the order well-defined rather than heap-layout-dependent.
	seq    uint64
	job    core.Job
	loss   float64
	truth  float64
	failed bool
}

// eventQueue is a 4-ary min-heap of events ordered by (time, seq). It
// replaces container/heap, whose interface{} API boxes every event on
// Push — one heap allocation per simulated job. The 4-ary layout also
// halves the tree depth, trading slightly more comparisons per level for
// far fewer cache-missing swaps on the ~10^5-event queues of 500-worker
// runs.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) Len() int { return len(q.ev) }

func (q *eventQueue) less(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// peekTime returns the earliest event time; the caller checks Len first.
func (q *eventQueue) peekTime() float64 { return q.ev[0].time }

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(&q.ev[i], &q.ev[parent]) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	n := len(q.ev)
	root := q.ev[0]
	q.ev[0] = q.ev[n-1]
	q.ev[n-1] = event{} // release the Job's config reference
	q.ev = q.ev[:n-1]
	q.siftDown(0)
	return root
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.ev)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(&q.ev[c], &q.ev[best]) {
				best = c
			}
		}
		if !q.less(&q.ev[best], &q.ev[i]) {
			break
		}
		q.ev[i], q.ev[best] = q.ev[best], q.ev[i]
		i = best
	}
}

// heapify restores the heap property over arbitrary slice contents in
// O(n) — used when the calendar queue promotes a whole ring bucket to
// the active heap at once.
func (q *eventQueue) heapify() {
	for i := (len(q.ev) - 2) / 4; i >= 0; i-- {
		q.siftDown(i)
	}
}

// simTrial is one simulated trial: the surrogate and, while a job runs,
// what that job needs undone or traced. The trial keeps the configuration
// its scheduler issued, never a copy (core.Job.Config).
type simTrial struct {
	workload.Trial
	// pre is the trial's state before its running job: restored when the
	// job is dropped or cut off by the horizon, and what a PBT heir of a
	// running donor inherits.
	pre     workload.TrialState
	running bool
	// startAt and startFrom are the running job's launch time and
	// starting resource, which the trace reads when RecordTrace is set.
	startAt, startFrom float64
}

// Sim is the discrete-event simulation backend for one scheduler over
// one benchmark. Each trial is one simTrial record, cut from a slab and
// indexed by trial ID (schedulers allocate IDs sequentially), and run
// statistics are maintained incrementally as resource is trained or
// rolled back, so nothing on the per-event path hashes, boxes, copies or
// rescans; a new trial is one slab record plus the surrogate's own math
// (ParamsFor).
type Sim struct {
	sched core.Scheduler
	bench *workload.Benchmark
	opt   Options
	rng   *xrand.RNG

	// trials is indexed by trial ID (nil = never started); nTrials
	// counts distinct non-nil entries.
	trials  []*simTrial
	nTrials int
	// slab is the unused tail of the current block of trial records: the
	// run's own, never the Benchmark's (concurrent runs share it), and
	// it pins nothing, since trials keeps every record until the run
	// ends.
	slab []simTrial

	events   calQueue
	nextSeq  uint64
	batch    []backend.Completion // reused Await buffer
	rawBatch []event              // reused same-instant event buffer
	now      float64
	trace    []JobEvent
	// dropRate is the continuous-time drop hazard.
	dropRate float64
	closed   bool

	// Incremental Stats accounting, updated by noteResource at every
	// trial-state mutation instead of an O(trials) end-of-run rescan.
	totalResource float64
	configsToR    int
	maxR          float64
}

// New builds a simulator. Options are validated with panics; simulator
// setups are static in the experiment harness.
func New(sched core.Scheduler, bench *workload.Benchmark, opt Options) *Sim {
	if opt.Workers < 1 {
		panic("cluster: need at least one worker")
	}
	s := &Sim{
		sched: sched,
		bench: bench,
		opt:   opt,
		rng:   xrand.New(opt.Seed ^ 0xC10C_0000_0000_0001),
		maxR:  bench.MaxResource(),
	}
	if opt.DropProb > 0 {
		s.dropRate = -math.Log(1 - opt.DropProb)
	}
	return s
}

// trial returns the trial for id, or nil.
func (s *Sim) trial(id int) *simTrial {
	if id < 0 || id >= len(s.trials) {
		return nil
	}
	return s.trials[id]
}

// trialSlabLen trial records fill a 32 KB size class almost exactly.
const trialSlabLen = 141

// noteResource folds one trial's resource change into the incremental
// run statistics.
func (s *Sim) noteResource(before, after float64) {
	s.totalResource += after - before
	const eps = 1e-9
	atR := after >= s.maxR-eps
	wasAtR := before >= s.maxR-eps
	if atR && !wasAtR {
		s.configsToR++
	} else if wasAtR && !atR {
		s.configsToR--
	}
}

// Run executes the simulation to completion and returns the run record.
func Run(sched core.Scheduler, bench *workload.Benchmark, opt Options) *metrics.Run {
	return New(sched, bench, opt).Run()
}

// Run drives the shared engine over this simulation backend until the
// time/job budget is exhausted or the scheduler is done and all jobs
// have drained. Simulation produces no errors, so only the run record is
// returned.
func (s *Sim) Run() *metrics.Run {
	run, _ := backend.Drive(context.Background(), s.sched, s, backend.Options{
		MaxJobs:      s.opt.MaxJobs,
		MaxTime:      s.opt.MaxTime,
		MaxResource:  s.bench.MaxResource(),
		StopAtFirstR: s.opt.StopAtFirstR,
		Evaluator:    s.opt.Evaluator,
	})
	return run
}

// Capacity implements backend.Backend.
func (s *Sim) Capacity() int { return s.opt.Workers }

// Launch applies the job's state transitions (inherit, config swap,
// training) immediately and schedules its completion event at the
// straggler-adjusted finish time.
func (s *Sim) Launch(job core.Job) {
	if job.TrialID >= len(s.trials) {
		s.trials = core.GrowTo(s.trials, job.TrialID+1)
	}
	t := s.trials[job.TrialID]
	if t == nil {
		if len(s.slab) == 0 {
			s.slab = make([]simTrial, trialSlabLen)
		}
		t, s.slab = &s.slab[0], s.slab[1:]
		s.bench.InitTrial(&t.Trial, job.TrialID, job.Config)
		s.trials[job.TrialID] = t
		s.nTrials++
	}
	before := t.Resource()
	if job.InheritFrom >= 0 {
		if donor := s.trial(job.InheritFrom); donor != nil {
			// A running donor's in-flight progress is not observable;
			// inherit its last checkpoint instead.
			if donor.running {
				t.Restore(donor.pre)
			} else {
				t.InheritFrom(&donor.Trial)
			}
		}
	}
	if !t.Config().Equal(job.Config) {
		t.SetConfig(job.Config)
	}
	t.pre, t.running = t.Checkpoint(), true
	t.startAt, t.startFrom = s.now, t.Resource()

	dr := job.TargetResource - t.Resource()
	if dr < 0 {
		dr = 0
	}
	loss := t.Train(dr)
	s.noteResource(before, t.Resource())
	duration := dr * t.CostPerUnit()
	if s.opt.StragglerSD > 0 {
		duration *= 1 + s.rng.HalfNormalAbs(s.opt.StragglerSD)
	}
	if duration <= 0 {
		duration = 1e-9
	}
	ev := event{
		time:   s.now + duration,
		seq:    s.nextSeq,
		job:    job,
		loss:   loss,
		truth:  t.TrueLoss(),
		failed: false,
	}
	s.nextSeq++
	if s.dropRate > 0 {
		if dropAt := s.rng.Exponential(1 / s.dropRate); dropAt < duration {
			ev.time = s.now + dropAt
			ev.failed = true
		}
	}
	s.events.push(ev)
}

// Await pops the earliest completion event, advances the virtual clock,
// and returns every completion sharing that exact event time as one
// batch (the engine ingests batches and only refills workers between
// them, so same-instant completions — common on constant-cost
// benchmarks — no longer pay a full engine round-trip each). An empty
// batch means the clock passed MaxTime: in-flight work past the horizon
// is discarded (rolled back — and, with RecordTrace, traced as
// truncated — in Close). The returned slice is reused across calls.
func (s *Sim) Await(ctx context.Context) ([]backend.Completion, error) {
	// A non-blocking receive on Done takes no lock; ctx.Err would take
	// the context's mutex once per event.
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	if s.events.Len() == 0 {
		return nil, nil
	}
	first := s.events.peekTime()
	if s.opt.MaxTime > 0 && first > s.opt.MaxTime {
		// The run's clock ends; the pending events never finished.
		s.now = s.opt.MaxTime
		return nil, nil
	}
	s.now = first
	s.rawBatch = s.events.popBatch(s.rawBatch[:0])
	s.batch = s.batch[:0]
	for i := range s.rawBatch {
		s.batch = append(s.batch, s.complete(s.rawBatch[i]))
		s.rawBatch[i] = event{} // release the Job's config reference
	}
	return s.batch, nil
}

// complete converts a finished event into a Completion, maintaining the
// trace and rolling back dropped jobs.
func (s *Sim) complete(ev event) backend.Completion {
	t := s.trials[ev.job.TrialID]
	if ev.failed {
		// All progress from the dropped job is lost: roll back first so
		// the trace records the resource the trial actually holds after
		// the drop, not the target it never reached.
		s.rollback(t)
		s.traceJob(t, ev.job.Rung, ev.time, true)
		return backend.Completion{Job: ev.job, Time: s.now, Failed: true}
	}
	t.running = false
	s.traceJob(t, ev.job.Rung, ev.time, false)
	return backend.Completion{
		Job:      ev.job,
		Loss:     ev.loss,
		TrueLoss: ev.truth,
		Resource: t.Resource(),
		Time:     s.now,
	}
}

// rollback undoes a running trial's job: the trial returns to the state
// it held before the job, and is running no more.
func (s *Sim) rollback(t *simTrial) {
	before := t.Resource()
	t.Restore(t.pre)
	t.running = false
	s.noteResource(before, t.Resource())
}

// traceJob appends one job's trace event when RecordTrace is set. The
// event ends at the trial's resource after the job settled (post-rollback
// for failed jobs), so Figure 2-style charts never show resource a trial
// does not hold.
func (s *Sim) traceJob(t *simTrial, rung int, end float64, failed bool) {
	if !s.opt.RecordTrace {
		return
	}
	s.trace = append(s.trace, JobEvent{
		TrialID: t.ID,
		Rung:    rung,
		Start:   t.startAt,
		End:     end,
		From:    t.startFrom,
		To:      t.Resource(),
		Failed:  failed,
	})
}

// Now implements backend.Backend on the virtual clock.
func (s *Sim) Now() float64 { return s.now }

// Close rolls back trials whose jobs were still in flight when the clock
// stopped, so final accounting only sees completed work. With
// RecordTrace set, each truncated job also gets a trace event — End
// pinned to the clock's final value (the MaxTime horizon when the run
// was time-truncated) and Failed set — so jobs cut off by the horizon
// no longer vanish from the trace. Truncated jobs are trace-only: they
// were never reported to the scheduler, so run counters are unchanged.
func (s *Sim) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	horizon := s.now
	// Drain the remaining in-flight events so truncated trace entries
	// come out in deterministic (time, seq) order and the event storage
	// releases its config references.
	for s.events.Len() > 0 {
		s.rawBatch = s.events.popBatch(s.rawBatch[:0])
		for i := range s.rawBatch {
			t, rung := s.trials[s.rawBatch[i].job.TrialID], s.rawBatch[i].job.Rung
			s.rawBatch[i] = event{}
			if !t.running {
				continue
			}
			s.rollback(t)
			s.traceJob(t, rung, horizon, true)
		}
	}
	// Defensive sweep: every in-flight job has exactly one queued event,
	// but roll back any stragglers regardless.
	for _, t := range s.trials {
		if t != nil && t.running {
			s.rollback(t)
		}
	}
	return nil
}

// Stats implements backend.Backend. The counters are maintained
// incrementally at every trial mutation, so this is O(1) rather than an
// O(trials) rescan.
func (s *Sim) Stats() backend.Stats {
	return backend.Stats{
		Trials:        s.nTrials,
		TotalResource: s.totalResource,
		ConfigsToR:    s.configsToR,
	}
}

// TrialsForTest exposes the simulator's trials keyed by ID for
// diagnostics and calibration tooling.
func (s *Sim) TrialsForTest() map[int]*workload.Trial {
	out := make(map[int]*workload.Trial, s.nTrials)
	for id, t := range s.trials {
		if t != nil {
			out[id] = &t.Trial
		}
	}
	return out
}

// Trace returns the per-job event log recorded when
// Options.RecordTrace is set, in completion order.
func (s *Sim) Trace() []JobEvent { return s.trace }
