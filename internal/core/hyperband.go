package core

import (
	"fmt"

	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// HyperbandConfig parameterizes synchronous Hyperband, which loops
// through SHA brackets with early-stopping rates s = 0..smax (Appendix
// A.3 runs brackets in that order), sizing each bracket so all brackets
// consume roughly equal budget.
type HyperbandConfig struct {
	Space         *searchspace.Space
	RNG           *xrand.RNG
	Eta           int
	MinResource   float64
	MaxResource   float64
	MaxBracket    int // run brackets s = 0..MaxBracket; <0 means smax
	IncumbentMode IncumbentMode
}

// IncumbentMode selects how Hyperband accounts for its incumbent
// (Appendix A.2): after every completed rung, or only after a completed
// bracket.
type IncumbentMode int

const (
	// ByRung records the incumbent after the completion of each SHA
	// rung, using intermediate validation losses (the accounting this
	// paper proposes; see Section 3.3).
	ByRung IncumbentMode = iota
	// ByBracket records the incumbent only after an entire SHA bracket
	// completes (the accounting of Li et al. 2018 / Klein et al. 2017).
	ByBracket
)

// Hyperband runs SHA brackets sequentially, looping over early-stopping
// rates. Within the active bracket jobs may run in parallel, but the
// bracket's rung barriers are preserved — this is the synchronous
// Hyperband the paper benchmarks in Section 4.1 and Appendix A.2.
type Hyperband struct {
	cfg     HyperbandConfig
	smax    int
	bracket int // current early-stopping rate s
	cur     *SHA
	inc     incumbent
	// idOffset keeps trial IDs unique across the inner SHA instances.
	idOffset  int
	curOffset int
}

// NewHyperband constructs a synchronous Hyperband scheduler. It panics on
// invalid configuration.
func NewHyperband(cfg HyperbandConfig) *Hyperband {
	if cfg.Space == nil || cfg.RNG == nil {
		panic(fmt.Errorf("core: Hyperband requires a space and an RNG"))
	}
	h := &Hyperband{cfg: cfg}
	h.smax = MaxRung(cfg.MinResource, cfg.MaxResource, cfg.Eta)
	if cfg.MaxBracket >= 0 && cfg.MaxBracket < h.smax {
		h.smax = cfg.MaxBracket
	}
	h.startBracket(0)
	return h
}

func (h *Hyperband) startBracket(s int) {
	h.bracket = s
	h.curOffset = h.idOffset
	h.cur = NewSHA(SHAConfig{
		Space:              h.cfg.Space,
		RNG:                h.cfg.RNG,
		N:                  HyperbandBracketSize(h.cfg.MinResource, h.cfg.MaxResource, h.cfg.Eta, s),
		Eta:                h.cfg.Eta,
		MinResource:        h.cfg.MinResource,
		MaxResource:        h.cfg.MaxResource,
		EarlyStopRate:      s,
		AllowNewBrackets:   false,
		IncumbentByBracket: h.cfg.IncumbentMode == ByBracket,
	})
}

// Next issues work from the active bracket; when the bracket completes,
// the next early-stopping rate starts (wrapping around after smax).
func (h *Hyperband) Next() (Job, bool) {
	if h.cur.Done() {
		h.rotate()
	}
	job, ok := h.cur.Next()
	if !ok {
		return Job{}, false
	}
	job.TrialID += h.curOffset
	return job, true
}

func (h *Hyperband) rotate() {
	// Fold the finished bracket's incumbent into the global one.
	if b, ok := h.cur.Best(); ok {
		h.inc.observe(Result{TrialID: b.TrialID + h.curOffset, Config: b.Config, Loss: b.Loss, TrueLoss: b.TrueLoss, Resource: b.Resource})
	}
	h.idOffset += h.cur.nextID
	next := h.bracket + 1
	if next > h.smax {
		next = 0
	}
	h.startBracket(next)
}

// Report routes the result to the active bracket.
func (h *Hyperband) Report(res Result) {
	res.TrialID -= h.curOffset
	h.cur.Report(res)
	res.TrialID += h.curOffset
	if h.cfg.IncumbentMode == ByRung && !res.Failed {
		h.inc.observe(res)
	}
	if h.cfg.IncumbentMode == ByBracket && h.cur.Done() {
		if b, ok := h.cur.Best(); ok {
			h.inc.observe(Result{TrialID: b.TrialID + h.curOffset, Config: b.Config, Loss: b.Loss, TrueLoss: b.TrueLoss, Resource: b.Resource})
		}
	}
}

// Best returns the incumbent under the configured accounting mode.
func (h *Hyperband) Best() (Best, bool) { return h.inc.get() }

// Done always reports false: Hyperband loops through brackets until the
// executor's budget is exhausted.
func (h *Hyperband) Done() bool { return false }
