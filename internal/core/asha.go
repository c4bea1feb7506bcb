package core

import (
	"fmt"
	"math"

	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// ASHAConfig parameterizes the Asynchronous Successive Halving Algorithm
// (Algorithm 2 of the paper).
type ASHAConfig struct {
	Space *searchspace.Space
	RNG   *xrand.RNG
	// Eta is the reduction factor (eta >= 2).
	Eta int
	// MinResource is r, the minimum resource.
	MinResource float64
	// MaxResource is R, the maximum resource per configuration.
	MaxResource float64
	// EarlyStopRate is s, the minimum early-stopping rate: rung 0 trains
	// to r * eta^s. s=0 is the most aggressive setting.
	EarlyStopRate int
	// InfiniteHorizon removes the R cap (Section 3.3): configurations
	// keep being promoted to ever-larger resources. MaxResource is then
	// ignored for promotion decisions but still bounds a single job via
	// RungCap if set.
	InfiniteHorizon bool
	// RungCap optionally bounds the number of rungs in the infinite
	// horizon setting (0 = unbounded). It exists so simulations
	// terminate; the algorithm itself needs no such cap.
	RungCap int
}

func (c *ASHAConfig) validate() error {
	if c.Space == nil {
		return fmt.Errorf("core: ASHA requires a search space")
	}
	if c.RNG == nil {
		return fmt.Errorf("core: ASHA requires an RNG")
	}
	if c.Eta < 2 {
		return fmt.Errorf("core: ASHA requires eta >= 2, got %d", c.Eta)
	}
	if c.MinResource <= 0 {
		return fmt.Errorf("core: ASHA requires a positive minimum resource")
	}
	if !c.InfiniteHorizon && c.MaxResource < c.MinResource {
		return fmt.Errorf("core: ASHA requires R >= r")
	}
	if c.EarlyStopRate < 0 {
		return fmt.Errorf("core: ASHA requires s >= 0")
	}
	return nil
}

// ashaRung is one rung's bookkeeping, cut to what the promotion rule
// reads: is the best unpromoted entry among the ⌊n/eta⌋ best of the
// rung, and which trial is it? Every add and promote is O(log n) worst
// case, however many adds arrive between promotions (a paused run, a
// replay) — the bottom rung holds ~10^5 entries at 500 workers.
//
//   - lower is a max-heap of the ⌊n/eta⌋ best entries and upper a
//     min-heap of the rest, rebalanced on every add. lower's root is the
//     promotion threshold.
//   - cand is a min-heap of the unpromoted entries that have entered
//     lower. An entry displaced from lower stays in cand: upper hands
//     entries back in order, so while it sits in upper it ranks after
//     lower's root. Hence cand's root is at or before the threshold
//     exactly when some unpromoted entry is in lower, and that root is
//     then the best unpromoted entry. Promotion pops it; nothing else is
//     ever removed.
//   - recorded and nominated are bits per trial ID: a repeated report is
//     ignored, and an entry is pushed to cand at most once, so a
//     promoted entry that leaves lower and comes back is not a candidate
//     again.
type ashaRung struct {
	eta          int
	lower, upper entryHeap
	cand         entryHeap
	recorded     bitset
	nominated    bitset
}

func newASHARung(eta int) *ashaRung {
	return &ashaRung{eta: eta, lower: entryHeap{max: true}}
}

// add records a completed observation; a trial's second report in the
// rung is ignored.
func (r *ashaRung) add(e entry) {
	if r.recorded.add(e.trialID) {
		return
	}
	// ⌊n/eta⌋ grows by at most one per add.
	grow := r.lower.Len() < (r.size()+1)/r.eta
	thr, ok := r.lower.Peek()
	switch {
	case ok && entryLess(e, thr):
		// e joins lower. Unless lower grows, its root moves to upper,
		// still a candidate if it was one.
		if grow {
			r.lower.Push(e)
		} else {
			r.upper.Push(r.lower.Replace(e))
		}
		r.nominate(e)
	case !grow:
		r.upper.Push(e)
	default:
		// lower grows by the better of e and upper's root.
		if m, ok := r.upper.Peek(); ok && entryLess(m, e) {
			e = r.upper.Replace(e)
		}
		r.lower.Push(e)
		r.nominate(e)
	}
}

// nominate makes e a candidate the first time it enters lower.
func (r *ashaRung) nominate(e entry) {
	if !r.nominated.add(e.trialID) {
		r.cand.Push(e)
	}
}

// size returns the number of completed observations in the rung.
func (r *ashaRung) size() int { return r.lower.Len() + r.upper.Len() }

// promotable returns the best unpromoted trial if it ranks within the
// top ⌊n/eta⌋ of the rung, or (-1, false).
func (r *ashaRung) promotable() (int, bool) {
	c, ok := r.cand.Peek()
	if !ok {
		return -1, false
	}
	// cand is non-empty, so lower is: it never shrinks.
	if thr, _ := r.lower.Peek(); entryLess(thr, c) {
		return -1, false
	}
	return c.trialID, true
}

// promote removes and returns the trial promotable names.
func (r *ashaRung) promote() (int, bool) {
	id, ok := r.promotable()
	if ok {
		r.cand.Pop()
	}
	return id, ok
}

// ASHA implements Algorithm 2. Whenever a worker asks for a job, it
// promotes a configuration in the top 1/eta of some rung if one exists
// (scanning from the highest rung down), and otherwise adds a fresh
// random configuration to the bottom rung.
//
// The get_job/report pair is the operation a 500-worker cluster performs
// ~10^5 times per run, so its state is laid out to stay allocation-free:
// trials live in a slice indexed by the (sequentially allocated) trial
// ID, configurations come from a slab arena, rung resources are a
// precomputed table instead of per-call math.Pow, the retry queue is a
// head-indexed ring rather than a re-sliced slice, and a rung holds each
// entry once, plus a candidate for about one in eta (ashaRung).
type ASHA struct {
	cfg     ASHAConfig
	topRung int // highest rung index (promotion target); -1 if unbounded
	rungs   []*ashaRung
	retry   retryQueue
	trials  []searchspace.Config // indexed by trial ID
	arena   *searchspace.Arena
	// rungRes caches rungResource(k); rung k's resource never changes.
	rungRes []float64
	nextID  int
	inc     incumbent
	// sampleHook, when non-nil, replaces uniform sampling of new
	// bottom-rung configurations (ModelASHA's TPE plugs in here).
	sampleHook func() searchspace.Config
}

// NewASHA constructs an ASHA scheduler. It panics on invalid
// configuration (configurations are static in practice).
func NewASHA(cfg ASHAConfig) *ASHA {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	a := &ASHA{cfg: cfg, arena: cfg.Space.NewArena()}
	if cfg.InfiniteHorizon {
		a.topRung = -1
		if cfg.RungCap > 0 {
			a.topRung = cfg.RungCap
		}
	} else {
		a.topRung = MaxRung(cfg.MinResource, cfg.MaxResource, cfg.Eta) - cfg.EarlyStopRate
		if a.topRung < 0 {
			a.topRung = 0
		}
	}
	a.rungs = append(a.rungs, newASHARung(cfg.Eta))
	return a
}

// rungResource returns the cumulative resource of rung k: r * eta^(s+k),
// capped at R in the finite horizon. Values are computed once per rung
// and memoized; the former per-call math.Pow sat directly on the get_job
// path.
func (a *ASHA) rungResource(k int) float64 {
	for len(a.rungRes) <= k {
		i := len(a.rungRes)
		res := a.cfg.MinResource * math.Pow(float64(a.cfg.Eta), float64(a.cfg.EarlyStopRate+i))
		if !a.cfg.InfiniteHorizon && res > a.cfg.MaxResource {
			res = a.cfg.MaxResource
		}
		a.rungRes = append(a.rungRes, res)
	}
	return a.rungRes[k]
}

// Next implements the get_job procedure of Algorithm 2.
func (a *ASHA) Next() (Job, bool) {
	if job, ok := a.retry.pop(); ok {
		return job, true
	}
	// Check for a promotable configuration, top rung first.
	for k := len(a.rungs) - 1; k >= 0; k-- {
		if a.topRung >= 0 && k >= a.topRung {
			continue // rung k's survivors are already at max resource
		}
		id, ok := a.rungs[k].promote()
		if !ok {
			continue
		}
		a.ensureRung(k + 1)
		return Job{
			TrialID:        id,
			Config:         a.trials[id],
			Rung:           k + 1,
			TargetResource: a.rungResource(k + 1),
			InheritFrom:    -1,
		}, true
	}
	// No promotion possible: grow the bottom rung.
	id := a.nextID
	a.nextID++
	var cfg searchspace.Config
	if a.sampleHook != nil {
		cfg = a.sampleHook()
	} else {
		cfg = a.arena.Sample(a.cfg.RNG)
	}
	a.trials = GrowTo(a.trials, id+1)
	a.trials[id] = cfg
	return Job{TrialID: id, Config: cfg, Rung: 0, TargetResource: a.rungResource(0), InheritFrom: -1}, true
}

// retryJob is the job that re-runs a failed attempt at trial's rung.
func (a *ASHA) retryJob(trial, rung int) Job {
	return Job{TrialID: trial, Config: a.trials[trial], Rung: rung, TargetResource: a.rungResource(rung), InheritFrom: -1}
}

func (a *ASHA) ensureRung(k int) {
	for len(a.rungs) <= k {
		a.rungs = append(a.rungs, newASHARung(a.cfg.Eta))
	}
}

// Report records a completed observation in its rung. Failed (dropped)
// jobs are retried: the configuration's training state was rolled back
// by the executor, so the identical job is simply re-queued.
func (a *ASHA) Report(res Result) {
	if res.Failed {
		a.retry.push(a.retryJob(res.TrialID, res.Rung))
		return
	}
	a.ensureRung(res.Rung)
	a.rungs[res.Rung].add(entry{trialID: res.TrialID, loss: res.Loss})
	// Section 3.3: ASHA uses intermediate losses to determine the
	// current best configuration.
	a.inc.observe(res)
}

// Best returns the incumbent by lowest intermediate validation loss.
func (a *ASHA) Best() (Best, bool) { return a.inc.get() }

// Done always reports false: ASHA grows its bracket incrementally and is
// stopped by the executor's budget.
func (a *ASHA) Done() bool { return false }

// RungSizes returns the number of completed entries per rung, lowest
// first — the live counterpart of Figure 2's "each rung should have about
// 1/eta of the configurations of the rung below it".
func (a *ASHA) RungSizes() []int {
	out := make([]int, len(a.rungs))
	for i, r := range a.rungs {
		out[i] = r.size()
	}
	return out
}
