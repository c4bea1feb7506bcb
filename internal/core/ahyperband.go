package core

import (
	"fmt"
	"math"

	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// AsyncHyperbandConfig parameterizes asynchronous Hyperband, which loops
// through brackets of ASHA with early-stopping rates s = 0..MaxBracket,
// "switching brackets when a budget corresponding to a hypothetical
// bracket of SHA would be depleted" (Sections 3.2 and 4.1).
type AsyncHyperbandConfig struct {
	Space       *searchspace.Space
	RNG         *xrand.RNG
	Eta         int
	MinResource float64
	MaxResource float64
	// MaxBracket is the largest early-stopping rate looped through;
	// <0 means smax. Section 4.3 loops s = 0,1,2,3.
	MaxBracket int
}

// AsyncHyperband multiplexes several ASHA brackets. Each bracket s has a
// per-cycle budget equal to the total resource of a hypothetical SHA
// bracket of the Hyperband size for s; new jobs are drawn from the
// current bracket until its cumulative assigned resource passes its
// quota, then the pointer advances (wrapping around).
type AsyncHyperband struct {
	cfg      AsyncHyperbandConfig
	brackets []*ASHA
	budgets  []float64 // per-cycle resource budget per bracket
	assigned []float64 // cumulative resource assigned per bracket
	quota    []float64 // current quota per bracket
	ptr      int
	// prevResource holds each trial's last completed resource, indexed
	// by global trial ID, so job increments can be charged to bracket
	// budgets. Global IDs interleave the brackets' sequential IDs by
	// stride (encodeID), so the table is dense.
	prevResource []float64
	inc          incumbent
}

// NewAsyncHyperband constructs an asynchronous Hyperband scheduler. It
// panics on invalid configuration.
func NewAsyncHyperband(cfg AsyncHyperbandConfig) *AsyncHyperband {
	if cfg.Space == nil || cfg.RNG == nil {
		panic(fmt.Errorf("core: async Hyperband requires a space and an RNG"))
	}
	smax := MaxRung(cfg.MinResource, cfg.MaxResource, cfg.Eta)
	if cfg.MaxBracket >= 0 && cfg.MaxBracket < smax {
		smax = cfg.MaxBracket
	}
	ah := &AsyncHyperband{cfg: cfg}
	for s := 0; s <= smax; s++ {
		ah.brackets = append(ah.brackets, NewASHA(ASHAConfig{
			Space:         cfg.Space,
			RNG:           cfg.RNG.SplitIndex("async-hyperband-bracket", s),
			Eta:           cfg.Eta,
			MinResource:   cfg.MinResource,
			MaxResource:   cfg.MaxResource,
			EarlyStopRate: s,
		}))
		n := HyperbandBracketSize(cfg.MinResource, cfg.MaxResource, cfg.Eta, s)
		layout := BracketLayout(n, cfg.MinResource, cfg.MaxResource, cfg.Eta, s)
		b := TotalBudget(layout)
		ah.budgets = append(ah.budgets, b)
		ah.quota = append(ah.quota, b)
		ah.assigned = append(ah.assigned, 0)
	}
	return ah
}

// NumBrackets returns the number of ASHA brackets being looped.
func (ah *AsyncHyperband) NumBrackets() int { return len(ah.brackets) }

// encode/decode pack the bracket index into the trial ID so results
// route back to the right ASHA instance.
func (ah *AsyncHyperband) encodeID(bracket, id int) int {
	return id*len(ah.brackets) + bracket
}

func (ah *AsyncHyperband) decodeID(global int) (bracket, id int) {
	n := len(ah.brackets)
	return global % n, global / n
}

// Next draws a job from the current bracket, advancing the pointer when
// the bracket's quota is exhausted.
func (ah *AsyncHyperband) Next() (Job, bool) {
	if ah.assigned[ah.ptr] >= ah.quota[ah.ptr] {
		ah.quota[ah.ptr] += ah.budgets[ah.ptr]
		ah.ptr = (ah.ptr + 1) % len(ah.brackets)
	}
	bracket := ah.ptr
	job, ok := ah.brackets[bracket].Next()
	if !ok {
		return Job{}, false
	}
	global := ah.encodeID(bracket, job.TrialID)
	prev := 0.0
	if global < len(ah.prevResource) {
		prev = ah.prevResource[global]
	}
	ah.assigned[bracket] += math.Max(0, job.TargetResource-prev)
	job.TrialID = global
	return job, true
}

// Report routes the result to its bracket and maintains the global
// incumbent from intermediate losses.
func (ah *AsyncHyperband) Report(res Result) {
	bracket, local := ah.decodeID(res.TrialID)
	if !res.Failed {
		if res.TrialID >= len(ah.prevResource) {
			ah.prevResource = GrowTo(ah.prevResource, res.TrialID+1)
		}
		ah.prevResource[res.TrialID] = res.Resource
		ah.inc.observe(res)
	}
	res.TrialID = local
	ah.brackets[bracket].Report(res)
}

// Best returns the incumbent across all brackets.
func (ah *AsyncHyperband) Best() (Best, bool) { return ah.inc.get() }

// Done always reports false.
func (ah *AsyncHyperband) Done() bool { return false }
