package core

import (
	"repro/internal/bayesopt"
	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// ModelASHAConfig parameterizes model-based ASHA: Algorithm 2 with the
// bottom rung grown by a TPE sampler instead of uniform random
// sampling. The paper's conclusion names "combining ASHA with adaptive
// selection methods" as the natural extension, and this is the variant
// later adopted by production tuners (e.g. asynchronous BOHB).
type ModelASHAConfig struct {
	Space         *searchspace.Space
	RNG           *xrand.RNG
	Eta           int
	MinResource   float64
	MaxResource   float64
	EarlyStopRate int
	// RandomFraction is the probability a new configuration is sampled
	// uniformly regardless of the model (default 1/3, as in BOHB).
	RandomFraction float64
}

// ModelASHA wraps ASHA, intercepting new-configuration sampling. It is
// asynchronous end to end: the model refits incrementally from whatever
// observations exist when a worker asks for work, so there are no
// synchronization barriers.
type ModelASHA struct {
	*ASHA
	space *searchspace.Space
	rng   *xrand.RNG
	tpe   *bayesopt.TPE
	frac  float64
	// obs collects (encoded config, loss) at the highest rung each
	// trial has reached.
	bestObs map[int]bayesopt.Point
}

// NewModelASHA constructs the model-based ASHA variant. It panics on
// invalid configuration.
func NewModelASHA(cfg ModelASHAConfig) *ModelASHA {
	if cfg.RandomFraction == 0 {
		cfg.RandomFraction = 1.0 / 3
	}
	m := &ModelASHA{
		space:   cfg.Space,
		rng:     cfg.RNG,
		tpe:     bayesopt.NewTPE(cfg.Space),
		frac:    cfg.RandomFraction,
		bestObs: make(map[int]bayesopt.Point),
	}
	m.ASHA = NewASHA(ASHAConfig{
		Space:         cfg.Space,
		RNG:           cfg.RNG,
		Eta:           cfg.Eta,
		MinResource:   cfg.MinResource,
		MaxResource:   cfg.MaxResource,
		EarlyStopRate: cfg.EarlyStopRate,
	})
	m.ASHA.sampleHook = m.sample
	return m
}

// sample proposes a configuration for the bottom rung: uniform with
// probability RandomFraction, otherwise TPE fit to each trial's
// highest-rung observation.
func (m *ModelASHA) sample() searchspace.Config {
	if m.rng.Bernoulli(m.frac) || len(m.bestObs) < m.tpe.MinPoints {
		return m.space.Sample(m.rng)
	}
	// In trial order: the TPE breaks equal losses by input order, which
	// must not vary run to run.
	obs := make([]bayesopt.Point, 0, len(m.bestObs))
	for id := 0; id < m.nextID; id++ {
		if p, ok := m.bestObs[id]; ok {
			obs = append(obs, p)
		}
	}
	return m.tpe.Sample(m.rng, obs)
}

// Report records the observation for the sampler and delegates to ASHA.
// A trial's latest result is always its most-trained one (rungs only
// grow), so the sampler keeps the last observation per trial.
func (m *ModelASHA) Report(res Result) {
	if !res.Failed {
		m.bestObs[res.TrialID] = bayesopt.Point{X: m.space.Encode(res.Config), Loss: res.Loss}
	}
	m.ASHA.Report(res)
}
