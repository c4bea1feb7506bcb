// Package exec provides the real-hardware execution backends: a pool of
// goroutine workers training in-process Go objectives (Pool), and a pool
// of OS worker processes speaking the binary job codec over their pipes
// (Subprocess, in subprocess.go). Both implement backend.Backend and
// are driven by the shared engine in internal/backend, so they use the
// exact same scheduler and metrics path as the discrete-event cluster
// simulator.
package exec

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
)

// Objective is a user training function. It must advance training of
// the given configuration from cumulative resource `from` to `to`,
// resuming from state (nil on first call), and return the validation
// loss at `to` plus the state to resume from later. Implementations must
// be safe for concurrent invocation on distinct trials.
//
// Objectives receive the name-keyed map view of the configuration (the
// scheduler hot path runs on dense vectors). cfg and ctx are valid until
// the objective returns; copy what you keep: every executor fills one
// map and one context per worker slot (Slot) and overwrites them for the
// slot's next job.
type Objective func(ctx context.Context, cfg map[string]float64, from, to float64, state interface{}) (loss float64, newState interface{}, err error)

// trialIDKey carries the job's trial ID into objective invocations.
type trialIDKey struct{}

// trialCtx carries the trial ID as a concrete context wrapper, so a
// Slot can hold one by value and overwrite it per job where
// context.WithValue would allocate a value context and a boxed int.
type trialCtx struct {
	context.Context
	id int
}

func (c *trialCtx) Value(key interface{}) interface{} {
	if _, ok := key.(trialIDKey); ok {
		return c.id
	}
	return c.Context.Value(key)
}

// Slot is the scratch one executor slot — an agent slot, a pool worker
// goroutine, a Serve loop — reuses for every job it runs: the trial
// context and the name-keyed config map handed to the objective. A job
// then brings the worker no heap object of its own. A slot runs one job
// at a time; what it hands out is valid until that objective returns
// (see Objective).
type Slot struct {
	ctx   trialCtx
	cfg   map[string]float64
	names []string // the keys cfg holds, in the order they were filled
}

// Context returns the slot's context, now a child of parent carrying
// the trial ID.
func (s *Slot) Context(parent context.Context, trial int) context.Context {
	s.ctx.Context, s.ctx.id = parent, trial
	return &s.ctx
}

// Config returns the slot's map holding exactly names[i]: vec[i]. While
// consecutive jobs name the same parameters only the values are
// overwritten; any other table clears the map first, so no key of the
// previous job's experiment is visible to this one. Names are compared
// by content: experiments interleaving on one slot each bring their own
// slice of, usually, the same names.
func (s *Slot) Config(names []string, vec []float64) map[string]float64 {
	if s.cfg == nil {
		s.cfg = make(map[string]float64, len(names))
	}
	if !slices.Equal(s.names, names) {
		clear(s.cfg)
		s.names = append(s.names[:0], names...)
	}
	for i, n := range names {
		s.cfg[n] = vec[i]
	}
	return s.cfg
}

// TrialIDFromContext extracts the trial ID installed by the executing
// backend. Objectives can use it to key per-trial resources (checkpoint
// paths, deterministic noise streams).
func TrialIDFromContext(ctx context.Context) (int, bool) {
	id, ok := ctx.Value(trialIDKey{}).(int)
	return id, ok
}

// poolTask is one job dispatched to a worker goroutine with its trial
// state resolved.
type poolTask struct {
	lane     *Pool
	job      core.Job
	from, to float64
	state    interface{}
}

// poolResult is a worker's raw answer, applied to its lane's trial table
// by the engine goroutine when the batch is drained.
type poolResult struct {
	lane  *Pool
	job   core.Job
	loss  float64
	state interface{}
	err   error
}

// poolLive is what the pool keeps per trial beside the shared record:
// the state object the trial's last objective handed back, which stays
// in this process.
type poolLive struct {
	state interface{}
	// set is false while state is still to be decoded from the trial's
	// committed checkpoint (a restored trial's, on first use: most trials
	// of a resumed run never launch again).
	set bool
}

// Pool is the goroutine worker-pool backend. All trial bookkeeping is
// owned by the engine goroutine: workers only execute objectives and
// send raw results over a channel, which the engine drains in batches —
// there is no shared mutable state and no per-result lock.
//
// A Pool value is one lane's view of the pool: its own objective and
// trial table over the shared worker goroutines (see Lane). The pool
// NewPool returns is lane 0 and, like every view, awaits and closes the
// whole pool.
type Pool struct {
	*poolShared
	// Trials holds each trial's committed resource and checkpoint — the
	// journal encoding of its state, computed at commit time on the engine
	// goroutine when checkpoint snapshots are enabled: encoding at snapshot
	// time instead would read a live state object that an objective may
	// still be mutating from a worker goroutine.
	backend.Trials
	lane int
	obj  Objective
	live core.Table[poolLive] // by trial ID
	// checkpoint enables commit-time JSON encoding of trial states for
	// journal snapshots (set by the engine when the lane is journaled).
	checkpoint bool
}

// at returns the trial's live-state slot.
func (p *Pool) at(id int) *poolLive {
	return p.live.Ensure(id)
}

// state returns the trial's state object; ckpt is its committed
// checkpoint, decoded when the trial has not run in this process. The
// objective gets it as decoded JSON (numbers are float64, objects are
// map[string]interface{}) — the representation subprocess and remote
// objectives always receive, so objectives used with resume must accept
// it.
func (p *Pool) state(id int, ckpt json.RawMessage) interface{} {
	l := p.at(id)
	if !l.set {
		l.set = true
		if len(ckpt) > 0 {
			// A checkpoint that does not decode leaves the state nil.
			_ = json.Unmarshal(ckpt, &l.state)
		}
	}
	return l.state
}

// poolShared is what a pool's lane views share: the goroutines, their
// channels and the clock.
type poolShared struct {
	workers int
	ctx     context.Context
	tasks   chan poolTask
	results chan poolResult
	batch   []backend.Completion // Await's return buffer, reused call to call
	start   time.Time
	wg      sync.WaitGroup
	stopped atomic.Bool
	closed  bool
}

// EnableCheckpointSnapshots turns on commit-time encoding of trial
// checkpoints. The engine calls it before any Launch when the lane has a
// journal; unjournaled lanes skip the per-completion marshal entirely.
func (p *Pool) EnableCheckpointSnapshots() { p.checkpoint = true }

// NewPool starts workers goroutines executing obj. The context is passed
// through to every objective invocation.
func NewPool(ctx context.Context, obj Objective, workers int) *Pool {
	if workers < 1 {
		panic("exec: pool needs at least one worker")
	}
	s := &poolShared{
		workers: workers,
		ctx:     ctx,
		// Buffers sized to capacity: with at most `workers` jobs in
		// flight, neither Launch nor a worker's result send can block.
		tasks:   make(chan poolTask, workers),
		results: make(chan poolResult, workers),
		start:   time.Now(),
	}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer s.wg.Done()
			s.workerLoop()
		}()
	}
	return &Pool{poolShared: s, obj: obj}
}

// Lane returns another view of the pool for a multi-scheduler engine:
// jobs launched through it run obj on the shared goroutines, keep their
// trial state in the view's own table, and complete — out of any view's
// Await — stamped with lane id.
func (p *Pool) Lane(id int, obj Objective) *Pool {
	return &Pool{poolShared: p.poolShared, lane: id, obj: obj}
}

func (s *poolShared) workerLoop() {
	var slot Slot
	for task := range s.tasks {
		if s.stopped.Load() {
			continue // drain queued tasks without running them
		}
		// The name-keyed view is filled on the worker goroutine, keeping
		// the engine goroutine's dispatch path allocation-free.
		cfg := task.job.Config
		loss, newState, err := task.lane.obj(slot.Context(s.ctx, task.job.TrialID),
			slot.Config(cfg.Names(), cfg.Values()), task.from, task.to, task.state)
		s.results <- poolResult{lane: task.lane, job: task.job, loss: loss, state: newState, err: err}
	}
}

// Capacity implements backend.Backend.
func (p *Pool) Capacity() int { return p.workers }

// Launch resolves the job's trial state (resource, checkpoint, inherit)
// and hands it to a worker. Called only from the engine goroutine.
func (p *Pool) Launch(job core.Job) {
	from, ckpt, inherited := p.Resolve(job.TrialID, job.InheritFrom)
	if inherited {
		donor := p.state(job.InheritFrom, ckpt) // the donor's checkpoint is now this trial's too
		*p.at(job.TrialID) = poolLive{state: donor, set: true}
	}
	p.tasks <- poolTask{lane: p, job: job, from: from, to: job.TargetResource, state: p.state(job.TrialID, ckpt)}
}

// Await blocks for one result of any lane then drains every other
// pending result, so the engine ingests completions in batches.
func (p *Pool) Await(ctx context.Context) ([]backend.Completion, error) {
	var err error
	p.batch, err = awaitBatch(ctx, p.results, p.batch, func(r poolResult) backend.Completion { return r.lane.apply(r) })
	return p.batch, err
}

// awaitBatch is the real executors' Await: it blocks for one result, then
// drains every other pending one, applying each into buf — the previous
// call's batch, reused as the Backend contract allows.
func awaitBatch[R any](ctx context.Context, results <-chan R, buf []backend.Completion, apply func(R) backend.Completion) ([]backend.Completion, error) {
	buf = buf[:0]
	select {
	case r := <-results:
		buf = append(buf, apply(r))
	case <-ctx.Done():
		return buf, ctx.Err()
	}
	for {
		select {
		case r := <-results:
			buf = append(buf, apply(r))
		default:
			return buf, nil
		}
	}
}

// apply commits a worker result to the lane's trial table and converts
// it to a Completion. Runs on the engine goroutine.
func (p *Pool) apply(r poolResult) backend.Completion {
	c := backend.Completion{Job: r.job, Lane: p.lane, Time: p.Now()}
	if r.err != nil {
		c.Err = fmt.Errorf("exec: objective failed for trial %d: %w", r.job.TrialID, r.err)
		return c
	}
	var ckpt json.RawMessage
	if p.checkpoint && r.state != nil {
		// Commit-time encoding: the worker that produced r.state has
		// finished and no new job of this trial can be running, so the
		// marshal cannot race a concurrent mutation. A state that does
		// not marshal is kept without a checkpoint (the trial restarts
		// from zero on resume, like a crashed worker's).
		if blob, err := json.Marshal(r.state); err == nil {
			ckpt = blob
		}
	}
	p.Commit(r.job.TrialID, r.job.TargetResource, ckpt)
	*p.at(r.job.TrialID) = poolLive{state: r.state, set: true}
	c.Loss = r.loss
	c.TrueLoss = r.loss
	c.Resource = r.job.TargetResource
	return c
}

// Now implements backend.Backend on the wall clock.
func (p *Pool) Now() float64 { return time.Since(p.start).Seconds() }

// Close stops dispatch, waits for in-flight objectives to return, and
// commits their results to the trial accounting (without reporting them
// to the scheduler — the run is over).
func (p *Pool) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	p.stopped.Store(true)
	close(p.tasks)
	p.wg.Wait()
	for {
		select {
		case r := <-p.results:
			if r.err == nil {
				r.lane.apply(r)
			}
		default:
			return nil
		}
	}
}
