package core

import (
	"fmt"

	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// RandomSearchConfig parameterizes the random-search baseline: every
// configuration is trained to the full resource R.
type RandomSearchConfig struct {
	Space       *searchspace.Space
	RNG         *xrand.RNG
	MaxResource float64
}

// RandomSearch trains uniformly sampled configurations to completion, in
// an embarrassingly parallel fashion.
type RandomSearch struct {
	cfg    RandomSearchConfig
	trials Table[searchspace.Config] // indexed by trial ID, allocated sequentially
	arena  *searchspace.Arena
	retry  retryQueue
	inc    incumbent
}

// NewRandomSearch constructs the baseline. It panics on invalid
// configuration.
func NewRandomSearch(cfg RandomSearchConfig) *RandomSearch {
	if cfg.Space == nil || cfg.RNG == nil {
		panic(fmt.Errorf("core: random search requires a space and an RNG"))
	}
	if cfg.MaxResource <= 0 {
		panic(fmt.Errorf("core: random search requires a positive max resource"))
	}
	return &RandomSearch{cfg: cfg, arena: cfg.Space.NewArena()}
}

// Next returns a job training a fresh configuration to R.
func (r *RandomSearch) Next() (Job, bool) {
	if job, ok := r.retry.pop(); ok {
		return job, true
	}
	r.trials.Append(r.arena.Sample(r.cfg.RNG))
	return r.job(r.trials.Len() - 1), true
}

// job is the one job random search runs per trial.
func (r *RandomSearch) job(trial int) Job {
	return Job{TrialID: trial, Config: *r.trials.At(trial), Rung: 0, TargetResource: r.cfg.MaxResource, InheritFrom: -1}
}

// Report updates the incumbent; failed jobs are retried.
func (r *RandomSearch) Report(res Result) {
	if res.Failed {
		r.retry.push(r.job(res.TrialID))
		return
	}
	r.inc.observe(res)
}

// Best returns the best fully-trained configuration so far.
func (r *RandomSearch) Best() (Best, bool) { return r.inc.get() }

// Done always reports false; random search is stopped by the executor's
// budget.
func (r *RandomSearch) Done() bool { return false }
