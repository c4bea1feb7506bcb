package core

import "sync/atomic"

// Gate state names, as reported by Gate.State and the admin API.
const (
	GateRunning = "running"
	GatePaused  = "paused"
	GateAborted = "aborted"
)

// Gate states, held in Gate.state.
const (
	gateRunning int32 = iota
	gatePaused
	gateAborted
)

// Gate wraps a Scheduler with live run control: an operator (the
// /v1/admin API, driven by ashactl) can pause, resume, or abort the run
// while the engine drives it. The wrapper is transparent when running —
// every call delegates — and enforces three invariants the
// cross-scheduler invariant suite checks for every algorithm:
//
//   - while paused, Next grants nothing (results of in-flight jobs are
//     still delivered, so the scheduler's bookkeeping stays exact and
//     resources remain monotone across a resume);
//   - after Abort, Next grants nothing, Done reports true, and late
//     results are swallowed — no work after abort;
//   - Abort is terminal, and lifts a pause on its way.
//
// The engine parks on its own control queue when a pause drains it (see
// backend.Engine), so the gate holds state only: one atomic word, which
// the engine's per-job Next, Report and Done read without a lock while
// other goroutines flip it. The inner scheduler itself is only ever
// called from the engine goroutine.
type Gate struct {
	inner Scheduler
	state atomic.Int32
}

// NewGate wraps a scheduler. The zero state is running: a gate nobody
// pauses behaves exactly like the scheduler it wraps.
func NewGate(inner Scheduler) *Gate { return &Gate{inner: inner} }

// Next implements Scheduler: it declines while paused or after abort,
// and delegates otherwise.
func (g *Gate) Next() (Job, bool) {
	if g.state.Load() != gateRunning {
		return Job{}, false
	}
	return g.inner.Next()
}

// Report implements Scheduler. Results are delivered even while paused
// — in-flight jobs finish and their losses must not be lost — but are
// swallowed after abort: an aborted run does no further work, including
// scheduler bookkeeping that could promote trials.
func (g *Gate) Report(res Result) {
	if g.state.Load() == gateAborted {
		return
	}
	g.inner.Report(res)
}

// Best implements Scheduler: the incumbent survives pause and abort.
func (g *Gate) Best() (Best, bool) { return g.inner.Best() }

// Done implements Scheduler: an aborted run is over regardless of what
// the inner scheduler still had planned.
func (g *Gate) Done() bool {
	return g.state.Load() == gateAborted || g.inner.Done()
}

// Pause stops further Next grants until Resume. Pausing an aborted or
// already-paused gate is a no-op.
func (g *Gate) Pause() { g.state.CompareAndSwap(gateRunning, gatePaused) }

// Resume lifts a pause; it cannot revive an aborted gate.
func (g *Gate) Resume() { g.state.CompareAndSwap(gatePaused, gateRunning) }

// Abort ends the run: Next declines forever, Done is true, late results
// are swallowed, and a pause is lifted so the run can drain and exit.
// Abort is idempotent and terminal.
func (g *Gate) Abort() { g.state.Store(gateAborted) }

// Paused reports whether the gate is currently paused.
func (g *Gate) Paused() bool { return g.state.Load() == gatePaused }

// State reports the gate's lifecycle state as one of the Gate*
// constants.
func (g *Gate) State() string {
	switch g.state.Load() {
	case gateAborted:
		return GateAborted
	case gatePaused:
		return GatePaused
	default:
		return GateRunning
	}
}
