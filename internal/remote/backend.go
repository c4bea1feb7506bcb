package remote

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
)

// result is one settled job delivered to the engine goroutine.
type result struct {
	lane *Backend
	job  core.Job
	out  Outcome
}

// Backend drives the shared execution engine over a worker fleet
// connected to an embedded lease server. The engine calls every method
// from a single goroutine; job outcomes arrive asynchronously from the
// server's HTTP handler and sweeper goroutines into a double-buffered
// queue (an append under a mutex is several times cheaper than a
// channel send on the per-job path, and can never block a handler —
// however many jobs a shutdown flushes at once).
//
// A Backend value is one lane's view of the fleet: its own trial table
// and experiment name over the shared server and queue (see Lane). The
// backend NewBackend returns is lane 0 and, like every view, awaits and
// closes the whole fleet.
type Backend struct {
	*fleet
	// Trials holds, as each trial's checkpoint, the opaque JSON a worker
	// reported. A job lost to a lease expiry is not committed, so its trial
	// resumes from the previous checkpoint — the rollback semantics of a
	// subprocess crash. On resume the lease server starts empty: journaled
	// in-flight jobs are resubmitted and leased afresh, while any worker
	// still holding a lease from the previous process finds it expired —
	// its heartbeat cancels the orphaned job and a late report is rejected,
	// so the retried job is delivered exactly once.
	backend.Trials
	lane       int
	experiment string // stamped on every job, for worker-side objective routing
}

// fleet is what a backend's lane views share: the server, the clock and
// the completion queue.
type fleet struct {
	srv      *Server
	capacity int
	start    time.Time
	closed   bool

	resMu   sync.Mutex
	results []result      // settled jobs awaiting the engine
	resCh   chan struct{} // signaled (cap 1) when results goes non-empty
	// spare is the other half of the results double buffer: the batch
	// Await drained last, emptied, which it swaps in when it drains the
	// next. Await's alone, so it needs no lock.
	spare []result
	// batch is Await's return buffer, reused call to call as the Backend
	// contract allows: the engine has ingested a batch before it awaits
	// the next.
	batch []backend.Completion
}

// NewBackend wraps a lease server as a backend.Backend with the given
// concurrent-job capacity. The backend owns the server: Close shuts it
// down.
func NewBackend(srv *Server, capacity int) *Backend {
	if capacity < 1 {
		capacity = 1
	}
	return &Backend{fleet: &fleet{
		srv:      srv,
		capacity: capacity,
		resCh:    make(chan struct{}, 1),
		start:    time.Now(),
	}}
}

// Lane returns another view of the fleet for a multi-scheduler engine:
// jobs launched through it carry the experiment name, keep their trial
// state in the view's own table, and complete — out of any view's
// Await — stamped with lane id.
func (b *Backend) Lane(id int, experiment string) *Backend {
	return &Backend{fleet: b.fleet, lane: id, experiment: experiment}
}

// deliver queues one settled job for the engine. Called from server
// goroutines; never blocks.
func (f *fleet) deliver(r result) {
	f.resMu.Lock()
	f.results = append(f.results, r)
	f.resMu.Unlock()
	select {
	case f.resCh <- struct{}{}:
	default:
	}
}

// Server returns the embedded lease server (for its URL and stats).
func (b *Backend) Server() *Server { return b.srv }

// Capacity implements backend.Backend: the maximum number of leased
// (or queued) jobs in flight. Worker elasticity happens below this cap —
// jobs queue until a worker leases them, however late it joins.
func (b *Backend) Capacity() int { return b.capacity }

// Launch resolves the job's trial state and submits it to the fleet.
func (b *Backend) Launch(job core.Job) {
	from, state, _ := b.Resolve(job.TrialID, job.InheritFrom)
	b.srv.submit(&task{lane: b, job: job, payload: JobPayload{
		Experiment: b.experiment,
		Trial:      job.TrialID,
		Rung:       job.Rung,
		// The dense Names/Vec form: the searchspace's live slices, so
		// every job of one space shares a backing array and the binary
		// wire's table dedup is a pointer compare.
		Names: job.Config.Names(),
		Vec:   job.Config.Values(),
		From:  from,
		To:    job.TargetResource,
		State: state,
	}})
}

// Await blocks for one settled job of any lane then drains every other
// pending one.
func (b *Backend) Await(ctx context.Context) ([]backend.Completion, error) {
	for {
		b.resMu.Lock()
		drained := b.results
		if len(drained) > 0 {
			// Swap, don't nil: on a saturated fleet results race in
			// while every batch is applied, and a buffer handed back only
			// "if nothing arrived meanwhile" regrows from nil each time.
			b.results = b.spare
		}
		b.resMu.Unlock()
		if len(drained) > 0 {
			b.batch = b.batch[:0]
			for i := range drained {
				b.batch = append(b.batch, drained[i].lane.apply(&drained[i]))
			}
			clear(drained) // the entries hold checkpoints
			b.spare = drained[:0]
			return b.batch, nil
		}
		select {
		case <-b.resCh:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// apply commits a settled job to the lane's trial table. Runs on the
// engine goroutine.
func (b *Backend) apply(r *result) backend.Completion {
	c := backend.Completion{Job: r.job, Lane: b.lane, Time: b.Now()}
	switch {
	case r.out.Failed:
		// Lease expired (worker died or went silent): the trial keeps its
		// last committed checkpoint and the scheduler retries the job on
		// whichever worker leases it next.
		c.Failed = true
	case r.out.Err != "":
		c.Err = fmt.Errorf("remote: objective failed for trial %d: %s", r.job.TrialID, r.out.Err)
	default:
		b.Commit(r.job.TrialID, r.job.TargetResource, r.out.State)
		c.Loss = r.out.Loss
		c.TrueLoss = r.out.Loss
		c.Resource = r.job.TargetResource
	}
	return c
}

// Now implements backend.Backend on the wall clock.
func (b *Backend) Now() float64 { return time.Since(b.start).Seconds() }

// Close shuts the lease server down: connected workers are told the run
// is over on their next poll, and unsettled jobs are flushed as Failed
// (uncommitted, so Stats only sees completed work).
func (b *Backend) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	return b.srv.Close()
}
