package backend

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Engine is the single execution engine: it drives any number of
// schedulers ("lanes") over one executor. Each pass fills free slots one
// at a time from the lane the pick policy names, launches the fill once
// each lane's issue records are flushed, awaits one batch of completions,
// journals it, ingests each completion into the lane that launched it
// once that lane's reports are flushed (no per-result locking), snapshots
// the journaled lanes the batch touched, and runs queued control
// commands. A journaled lane thus writes once per fill and once per
// batch, however many records either holds. Everything a lane owns —
// scheduler, budgets, metrics, journal writer, event emitter — is touched
// by the engine goroutine only.
type Engine struct {
	// Dormant counts schedulers that may still join the run (a federated
	// shard's unadopted experiments): while it is non-zero an idle engine
	// parks on its control queue instead of returning. Set it before Run
	// and adjust it only inside Do.
	Dormant int
	// Budget is the in-flight cap across lanes, root.Capacity() to start
	// with. Adjust it only inside Do; a lower cap takes effect as running
	// jobs settle.
	Budget int

	root     Backend            // Capacity, Await, Now, Close; lanes Launch through their views
	tenants  map[string]*tenant // nil without quota weights
	quotas   map[string]int
	order    []*Lane      // live lanes in rank order: what pick sees
	byID     []*Lane      // lane id -> lane, nil once retired; ids are never reused
	dirty    []*Lane      // lanes the current batch touched
	launches []launch     // the current fill, in issue order: launched once journaled
	settled  []Completion // the current batch's completions to ingest once journaled
	ckpt     []byte       // the lanes' one checkpoint buffer (spareCkpt): a lane's image is encoded and written at once
	inflight int
	live     int // lanes in order that have not ended

	// Control plane: Do queues a command and cancels awaitCtx, the context
	// Await blocks on, to wake the engine for it.
	control  chan func()
	done     chan struct{}
	awaitCtx context.Context // replaced by the engine goroutine after each wake
	wakeMu   sync.Mutex      // guards wake
	wake     context.CancelFunc
}

// spareCkpt hands the checkpoint buffer of an engine whose run ended to
// the next one to start. A checkpoint is as large as its scheduler's
// state — a third of a megabyte for a 15 000-job ASHA run — and a
// process that runs one journaled experiment after another would
// otherwise grow a buffer that size afresh for each, in steps of a
// quarter as append grows large slices. A sync.Pool would drop it at
// the next collection; this keeps the largest one up to spareCkptMax,
// so that one large run does not pin its image for the life of the
// process.
var spareCkpt struct {
	sync.Mutex
	buf []byte
}

// spareCkptMax is the largest buffer spareCkpt keeps: the image of a
// ~50 000-job ASHA run.
const spareCkptMax = 1 << 20

// NewEngine prepares an engine over root with a budget of
// root.Capacity() jobs in flight. quotas, when non-empty, makes slot
// allocation two-level: tenants first by running/weight, then lanes
// within the tenant (see pick); absent tenants weigh 1.
func NewEngine(root Backend, quotas map[string]int) *Engine {
	e := &Engine{
		root: root, quotas: quotas, Budget: root.Capacity(),
		// Admin traffic is a few requests a second at most; 16 queued
		// commands only buffer a burst while a batch is being ingested.
		control: make(chan func(), 16),
		done:    make(chan struct{}),
	}
	if len(quotas) > 0 {
		e.tenants = make(map[string]*tenant)
	}
	return e
}

// launch is one job of a fill, holding its slot until the fill ends.
type launch struct {
	lane  *Lane
	job   core.Job
	fresh bool // issued in this fill, not a resumed lane's relaunch
}

// Lane is one scheduler's share of an engine run: everything the engine
// keeps per scheduler. Its methods must be called on the engine
// goroutine — before Run, inside Do, or after Run returns.
type Lane struct {
	id       int
	rank     int
	sched    core.Scheduler
	exec     Backend // the lane's view of the executor: Launch, Stats, trial checkpoints
	opt      Options
	run      *metrics.Run
	jw       *journalWriter
	em       emitter
	relaunch []core.Job // journaled in-flight jobs of a resumed run, launched first
	clockOff float64    // the journal's maximum time; the resumed clock continues it

	// What the slot policy reads (see pick), besides run.IssuedJobs.
	// runnable is cleared when the lane declines a slot — budget spent,
	// scheduler done, at a synchronous barrier or paused — and set again
	// by whatever can change that answer: a completion or a resume.
	runnable bool
	running  int
	tenant   *tenant

	rungCompleted []int // successful completions per rung, for status
	dirty         bool
	ended         bool  // failed, stopped at first R, or retired: issues and ingests nothing more
	err           error // what failed the lane
}

// tenant is one quota namespace's share: its weight and the running
// tally of its lanes' in-flight jobs, kept as jobs launch and settle.
type tenant struct {
	name    string
	weight  int
	running int
}

// pick names the lane the next free slot goes to, or nil when no lane
// is runnable: the runnable lane with the fewest jobs in flight, ties to
// the fewest issued, then to the earlier in lanes. Across tenants the
// slot goes to the tenant with the lowest running/weight ratio, compared
// without division; a tenant with nothing running has ratio zero and can
// never lose to one with work in flight, so no tenant starves. Ratio
// ties break to the lexicographically smaller tenant. Without quotas
// every lane's tenant is nil and only the first rule applies.
func pick(lanes []*Lane) *Lane {
	var p *Lane
	for _, l := range lanes {
		if !l.runnable {
			continue
		}
		if p == nil {
			p = l
			continue
		}
		if l.tenant == p.tenant {
			if l.running < p.running || (l.running == p.running && l.run.IssuedJobs < p.run.IssuedJobs) {
				p = l
			}
			continue
		}
		lr, pr := l.tenant.running*p.tenant.weight, p.tenant.running*l.tenant.weight
		if lr < pr || (lr == pr && l.tenant.name < p.tenant.name) {
			p = l
		}
	}
	return p
}

// AddLane joins sched to the run, launching through exec — the lane's
// view of the engine's executor (the executor itself when there is one
// lane). rank orders lanes for pick's last tie-break; tenant names the
// quota namespace. opt.Resume continues a journaled run reconstructed by
// Replay. Lane ids count up from zero and are never reused: completions
// of a retired lane find no owner and are discarded.
func (e *Engine) AddLane(sched core.Scheduler, exec Backend, opt Options, rank int, tenantName string) *Lane {
	l := &Lane{
		id:       len(e.byID),
		rank:     rank,
		sched:    sched,
		exec:     exec,
		opt:      opt,
		run:      &metrics.Run{FirstRTime: math.Inf(1)},
		jw:       newJournalWriter(opt.Journal, opt.SnapshotEvery),
		em:       emitter{bus: opt.Events, exp: opt.Experiment, maxRung: -1},
		runnable: true,
	}
	if opt.Journal != nil {
		// Backends holding in-memory state objects (the goroutine pool)
		// must encode checkpoints at commit time rather than at snapshot
		// time, when a worker may still be mutating them.
		if cp, ok := exec.(interface{ EnableCheckpointSnapshots() }); ok {
			cp.EnableCheckpointSnapshots()
		}
		if opt.Resume == nil {
			// A scheduler that declines (core.CodecOf) is found out at the
			// first checkpoint, not by encoding it here per lane.
			l.jw.codec, _ = sched.(core.StateCodec)
		}
	}
	if rs := opt.Resume; rs != nil {
		l.run = rs.Run
		l.relaunch = append(l.relaunch, rs.Relaunch...)
		l.clockOff = rs.TimeOffset
		l.rungCompleted = rs.rungCompleted
		l.jw.resume(rs)
		if tc, ok := exec.(TrialCheckpointer); ok {
			for _, t := range rs.Trials {
				tc.RestoreTrial(t.Trial, t.Resource, t.State)
			}
		}
	}
	if e.tenants != nil {
		t := e.tenants[tenantName]
		if t == nil {
			t = &tenant{name: tenantName, weight: 1}
			if w := e.quotas[tenantName]; w > 0 {
				t.weight = w
			}
			e.tenants[tenantName] = t
		}
		l.tenant = t
	}
	e.byID = append(e.byID, l)
	at := len(e.order)
	for at > 0 && e.order[at-1].rank > rank {
		at--
	}
	e.order = append(e.order, nil)
	copy(e.order[at+1:], e.order[at:])
	e.order[at] = l
	e.live++
	return l
}

// NextLane is the id AddLane will assign next, for building the lane's
// executor view before the lane itself.
func (e *Engine) NextLane() int { return len(e.byID) }

// Retire removes a lane from the run without sealing it: its in-flight
// jobs keep their slots until they settle, and their completions are
// discarded before they reach journal or scheduler — whoever owns the
// journal next re-issues them from their issue records.
func (e *Engine) Retire(l *Lane) {
	e.end(l, nil)
	if l.tenant != nil {
		l.tenant.running -= l.running
	}
	e.byID[l.id] = nil
	for i, o := range e.order {
		if o == l {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
}

// end stops a lane issuing and ingesting; err, when non-nil, is what
// failed it. The other lanes run on.
func (e *Engine) end(l *Lane, err error) {
	if l.ended {
		return
	}
	l.ended, l.runnable, l.err = true, false, err
	e.live--
}

// exhausted reports whether the lane's budgets allow no further issue.
func (e *Engine) exhausted(l *Lane) bool {
	return (l.opt.MaxJobs > 0 && l.run.IssuedJobs >= l.opt.MaxJobs) ||
		(l.opt.MaxTime > 0 && e.root.Now()+l.clockOff >= l.opt.MaxTime)
}

// Run drives every lane until the context is cancelled, every lane has
// spent its budget, finished or failed, or the executor can complete
// nothing more. It returns the executor's error, if any; a lane's own
// failure (objective error, journal append failure) ends that lane only
// and is read from Lane.Result. Run closes the executor and seals the
// lanes: a clean end journals a final snapshot.
func (e *Engine) Run(ctx context.Context) error {
	defer close(e.done)
	spareCkpt.Lock()
	e.ckpt, spareCkpt.buf = spareCkpt.buf, nil
	spareCkpt.Unlock()
	defer func() {
		spareCkpt.Lock()
		if cap(e.ckpt) > cap(spareCkpt.buf) && cap(e.ckpt) <= spareCkptMax {
			spareCkpt.buf = e.ckpt[:0]
		}
		e.ckpt = nil
		spareCkpt.Unlock()
	}()
	e.renewWake(ctx)
	var runErr error
	for {
		e.runControl()
		// Fill every free slot until no lane is runnable or the budget is
		// reached. Journaled in-flight jobs of a resumed lane go first:
		// they were issued (and counted, and journaled) before the crash,
		// so they relaunch without new issue records — a second crash and
		// resume still sees exactly one issue per attempt.
		for e.inflight < e.Budget && ctx.Err() == nil {
			l := pick(e.order)
			if l == nil {
				break
			}
			e.issue(l)
		}
		if !e.launch() {
			continue // a lane's flush failed and gave its slots back: fill again
		}
		if e.live == 0 && e.Dormant == 0 {
			break // every lane failed or stopped; Close rolls their strays back
		}
		if e.inflight == 0 {
			if ctx.Err() == nil && (e.Dormant > 0 || e.pausedWork()) {
				// Nothing in flight, but a paused lane still has work or a
				// scheduler may yet be adopted: the lanes are declining by
				// operator order, not because the run is over. Park until
				// a control command (or cancellation) instead of draining
				// out.
				select {
				case fn := <-e.control:
					fn()
				case <-ctx.Done():
				}
				continue
			}
			break // nothing running, nothing schedulable: drained
		}
		batch, err := e.root.Await(e.awaitCtx)
		if err != nil {
			if ctx.Err() == nil && e.awaitCtx.Err() != nil {
				// Woken for a control command. The new context is in place
				// before runControl looks at the queue, so a command queued
				// after that look cancels the context the next Await gets.
				e.renewWake(ctx)
				continue
			}
			if ctx.Err() == nil {
				runErr = err
			}
			break
		}
		if len(batch) == 0 {
			break // backend clock expired
		}
		e.settled = e.settled[:0]
		for _, c := range batch {
			e.settle(ctx, c)
		}
		e.deliver()
		for _, l := range e.dirty {
			l.dirty = false
			if l.ended {
				continue
			}
			if l.jw.due() {
				if err := l.jw.snapshot(l, &e.ckpt, e.root.Now()+l.clockOff, false); err != nil {
					e.end(l, err)
					continue
				}
			}
			if l.opt.StopAtFirstR && !math.IsInf(l.run.FirstRTime, 1) {
				e.end(l, nil)
			}
		}
		e.dirty = e.dirty[:0]
	}
	e.wake()
	closeErr := e.root.Close()
	if runErr == nil && closeErr != nil && ctx.Err() == nil {
		runErr = closeErr
	}
	// Seal the lanes after Close, which commits any in-flight results to
	// the trial tables. A clean end gets a final snapshot.
	now := e.root.Now()
	for _, l := range e.order {
		if l.err == nil && runErr == nil && ctx.Err() == nil && l.jw.j != nil {
			l.err = l.jw.snapshot(l, &e.ckpt, now+l.clockOff, true)
		}
		st := l.exec.Stats()
		l.run.EndTime = now + l.clockOff
		l.run.Trials = st.Trials
		l.run.TotalResource = st.TotalResource
		l.run.ConfigsToR = st.ConfigsToR
	}
	return runErr
}

// issue gives one slot to l, or clears l.runnable when it has nothing
// to launch. The job joins the fill; launch starts it.
func (e *Engine) issue(l *Lane) {
	p := launch{lane: l, fresh: len(l.relaunch) == 0}
	if !p.fresh {
		p.job = l.relaunch[0]
		l.relaunch = l.relaunch[1:]
	} else {
		if e.exhausted(l) || l.sched.Done() {
			l.runnable = false
			return
		}
		var ok bool
		if p.job, ok = l.sched.Next(); !ok {
			l.runnable = false // retry after the lane's next completion
			return
		}
		if err := l.jw.issue(p.job); err != nil {
			e.end(l, err)
			return
		}
		l.run.IssuedJobs++
	}
	e.launches = append(e.launches, p)
	l.running++
	e.inflight++
	if l.tenant != nil {
		l.tenant.running++
	}
}

// launch starts the fill's jobs in issue order, each lane's behind one
// flush of all its issue records. Write-ahead: a job whose issue record
// is not durable must never launch, or recovery could double-issue it —
// so a lane whose flush fails ends, and its jobs give their slots back
// instead of launching. launch reports whether every job launched.
func (e *Engine) launch() bool {
	all := true
	for i := range e.launches {
		p := &e.launches[i]
		l := p.lane
		if err := l.jw.flush(); err != nil {
			e.end(l, err)
		}
		if l.ended {
			all = false
			l.running--
			e.inflight--
			if l.tenant != nil {
				l.tenant.running--
			}
			if p.fresh {
				l.run.IssuedJobs--
			}
			continue
		}
		if p.fresh {
			l.em.launched(p.job)
		}
		l.exec.Launch(p.job)
	}
	e.launches = e.launches[:0]
	return all
}

// settle routes one completion to the lane that launched it and stages
// its report; deliver ingests it.
func (e *Engine) settle(ctx context.Context, c Completion) {
	e.inflight--
	l := e.byID[c.Lane]
	if l == nil {
		return // retired lane: another owner's job now
	}
	l.running--
	if l.tenant != nil {
		l.tenant.running--
	}
	if l.ended {
		return // stray of a lane that already failed or stopped
	}
	if c.Err != nil {
		if ctx.Err() != nil {
			c.Err = nil // the objective saw the cancellation, not a fault
		}
		e.end(l, c.Err)
		return
	}
	c.Time += l.clockOff
	if err := l.jw.report(c); err != nil {
		e.end(l, err)
		return
	}
	e.settled = append(e.settled, c)
}

// deliver ingests the batch's completions in arrival order, each lane's
// behind one flush of all its report records. Write-ahead: the journal is
// always a superset of scheduler state, so replay can only
// over-approximate — never lose — a delivered result. A lane that ended
// while the batch was journaled, or whose flush fails, ingests none of it.
func (e *Engine) deliver() {
	for i := range e.settled {
		c := &e.settled[i]
		l := e.byID[c.Lane]
		if l.ended {
			continue
		}
		if err := l.jw.flush(); err != nil {
			e.end(l, err)
			continue
		}
		ingest(l, *c)
		l.runnable = true // a completion may lift a barrier or finish a rung
		if !l.dirty {
			l.dirty = true
			e.dirty = append(e.dirty, l)
		}
	}
}

// pausedWork reports whether some lane is paused with budget and
// scheduler both unfinished.
func (e *Engine) pausedWork() bool {
	for _, l := range e.order {
		if !l.ended && l.opt.Gate != nil && l.opt.Gate.Paused() && !e.exhausted(l) && !l.sched.Done() {
			return true
		}
	}
	return false
}

// Pause stops the lane issuing until Resume; in-flight jobs finish and
// report normally. A lane without a gate cannot be paused.
func (l *Lane) Pause() {
	if l.opt.Gate != nil && !l.ended {
		l.opt.Gate.Pause()
		l.runnable = false
	}
}

// Resume lifts a pause.
func (l *Lane) Resume() {
	if l.opt.Gate != nil && !l.ended {
		l.opt.Gate.Resume()
		l.runnable = true
	}
}

// Abort ends the lane's scheduling for good: the gate declines every
// further Next, reports itself done and swallows late results, so the
// lane drains and seals like one that finished.
func (l *Lane) Abort() {
	if l.opt.Gate != nil && !l.ended {
		l.opt.Gate.Abort()
		l.runnable = true // one more look finds the scheduler done
	}
}

// LaneStatus is a lane's live state for the admin surface.
type LaneStatus struct {
	State                              string // see Engine.State
	Issued, Completed, Failed, Running int
	Best                               core.Best
	HasBest                            bool
	RungCompleted                      []int
}

// Status snapshots a lane.
func (e *Engine) Status(l *Lane) LaneStatus {
	st := LaneStatus{
		State:         e.State(l),
		Issued:        l.run.IssuedJobs,
		Completed:     l.run.CompletedJobs,
		Failed:        l.run.FailedJobs,
		Running:       l.running,
		RungCompleted: append([]int(nil), l.rungCompleted...),
	}
	st.Best, st.HasBest = l.sched.Best()
	return st
}

// State names a lane's lifecycle state: one of core's gate states
// ("running", "paused", "aborted"), "failed" once an error ended it, or
// "done" once it has nothing left to issue and nothing in flight.
func (e *Engine) State(l *Lane) string {
	state := core.GateRunning
	if l.opt.Gate != nil {
		state = l.opt.Gate.State()
	}
	switch {
	case state == core.GateAborted:
	case l.err != nil:
		state = "failed"
	case l.ended, l.running == 0 && len(l.relaunch) == 0 &&
		(e.exhausted(l) || l.sched.Done() || (!l.runnable && state != core.GatePaused)):
		state = "done"
	}
	return state
}

// Result is the lane's run record and what failed it, if anything.
// Valid once Run has returned.
func (l *Lane) Result() (*metrics.Run, error) { return l.run, l.err }

// controlTimeout bounds how long Do waits for the engine to take a
// command off a full queue — only a wedged engine leaves it full; better
// a told-you-so error than an admin API that hangs with it.
const controlTimeout = 5 * time.Second

// ErrEnded is returned by Do once Run has returned.
var ErrEnded = errors.New("backend: the run has ended")

// Do runs fn on the engine goroutine — between batches, waking the
// engine out of Await if need be — and returns its error. It is safe
// from any goroutine, and fails fast once the run has ended. Once the
// command is queued Do waits for fn however long it takes (an adopt
// replays a journal): returning early would leave fn running against
// results the caller has already read.
func (e *Engine) Do(fn func() error) error {
	// Unbuffered: the engine hands the answer over before it can end the
	// run, so a command that ends it (the last abort) is answered, not
	// reported ErrEnded.
	reply := make(chan error)
	timeout := time.NewTimer(controlTimeout)
	defer timeout.Stop()
	select {
	case e.control <- func() { reply <- fn() }:
	case <-e.done:
		return ErrEnded
	case <-timeout.C:
		return errors.New("backend: engine control timed out")
	}
	// Queue first, then cancel whichever context is current: the engine
	// either sees the command on its next look at the queue or has its
	// next Await cancelled (see Run).
	e.wakeMu.Lock()
	if e.wake != nil {
		e.wake()
	}
	e.wakeMu.Unlock()
	select {
	case err := <-reply:
		return err
	case <-e.done:
		return ErrEnded
	}
}

// runControl executes every queued control command.
func (e *Engine) runControl() {
	for {
		select {
		case fn := <-e.control:
			fn()
		default:
			return
		}
	}
}

// renewWake replaces the context Await blocks on — a child of ctx that
// Do cancels — at the start of the run and after each wake: one context
// per command, nothing per job or batch.
func (e *Engine) renewWake(ctx context.Context) {
	e.wakeMu.Lock()
	e.awaitCtx, e.wake = context.WithCancel(ctx)
	e.wakeMu.Unlock()
}
