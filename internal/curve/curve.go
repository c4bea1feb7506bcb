// Package curve implements stateful surrogate learning curves: the
// substitute for real model training in this reproduction (see DESIGN.md,
// "Substitutions").
//
// A configuration's training dynamics are an exponential decay toward a
// configuration-dependent asymptote:
//
//	loss(r + dr) = A + (loss(r) - A) * exp(-k * dr)
//
// where the asymptote A, the rate k, the per-resource-unit wall-clock
// cost and the observation noise are all deterministic functions of the
// hyperparameters via a randomly drawn (but benchmark-seeded) response
// surface. The trainer is stateful — it supports checkpoint, restore and
// PBT-style state inheritance — so every scheduler in the paper interacts
// with it exactly as it would with a real iterative training job.
package curve

import (
	"math"

	"repro/internal/xrand"
)

// Params fully describes one configuration's learning curve.
type Params struct {
	// Initial is the loss before any training (e.g. random-guess error).
	Initial float64
	// Asymptote is the loss the curve converges to as resource grows.
	Asymptote float64
	// Rate is the exponential convergence rate per unit resource. A
	// configuration trained for r resource units has expected loss
	// Asymptote + (Initial-Asymptote)*exp(-Rate*r).
	Rate float64
	// NoiseSD is the standard deviation of observation noise added to
	// each validation-loss measurement.
	NoiseSD float64
	// CostPerUnit is the wall-clock time required to train for one
	// resource unit (before straggler effects).
	CostPerUnit float64
	// Diverges marks pathological configurations whose loss explodes
	// rather than converging (e.g. the huge-perplexity configurations
	// observed in Section 4.3). When set, the loss grows toward
	// DivergeLevel instead of decaying toward Asymptote.
	Diverges     bool
	DivergeLevel float64
}

// State is an opaque training checkpoint. It captures everything needed
// to resume training exactly where it stopped.
type State struct {
	Resource float64 // accumulated training resource
	Loss     float64 // current underlying ("weights") loss
}

// Trainer is a stateful iterative trainer following Params dynamics.
type Trainer struct {
	p     Params
	rng   *xrand.RNG
	state State
}

// Init starts t at resource 0 on p's curve, in place, for a trainer
// inside a larger record. rng drives observation noise only; the
// underlying dynamics are deterministic given Params.
func (t *Trainer) Init(p Params, rng *xrand.RNG) {
	*t = Trainer{p: p, rng: rng, state: State{Resource: 0, Loss: p.Initial}}
}

// Params returns the trainer's current curve parameters.
func (t *Trainer) Params() Params { return t.p }

// SetParams replaces the curve parameters while keeping the current
// state. This models a PBT explore step: the "weights" (current loss)
// persist while the hyperparameters — and hence the asymptote and rate —
// change.
func (t *Trainer) SetParams(p Params) { t.p = p }

// Train advances the trainer by dr resource units and returns the
// observed (noisy) validation loss at the new checkpoint.
func (t *Trainer) Train(dr float64) float64 {
	if dr < 0 {
		panic("curve: negative training increment")
	}
	if t.p.Diverges {
		// Exponential blow-up toward DivergeLevel: the loss worsens with
		// more training, mimicking an unstable learning rate.
		frac := 1 - math.Exp(-t.p.Rate*dr)
		t.state.Loss += (t.p.DivergeLevel - t.state.Loss) * frac
	} else {
		t.state.Loss = t.p.Asymptote + (t.state.Loss-t.p.Asymptote)*math.Exp(-t.p.Rate*dr)
	}
	t.state.Resource += dr
	return t.Observe()
}

// Observe returns a noisy measurement of the current loss, as a
// validation pass would.
func (t *Trainer) Observe() float64 {
	if t.p.NoiseSD == 0 {
		return t.state.Loss
	}
	return t.state.Loss + t.rng.Normal(0, t.p.NoiseSD)
}

// TrueLoss returns the noiseless current loss (used by the experiment
// harness to report "test error" for the incumbent).
func (t *Trainer) TrueLoss() float64 { return t.state.Loss }

// Resource returns the total resource trained so far.
func (t *Trainer) Resource() float64 { return t.state.Resource }

// Checkpoint captures the current training state.
func (t *Trainer) Checkpoint() State { return t.state }

// Restore rewinds the trainer to a previous checkpoint.
func (t *Trainer) Restore(s State) { t.state = s }

// InheritFrom copies another trainer's state ("weights") into this one,
// as PBT's exploit step does, while keeping this trainer's own Params.
func (t *Trainer) InheritFrom(src *Trainer) { t.state = src.state }

// ExpectedLossAt returns the noiseless loss the curve reaches when
// trained from scratch for r resource units. It is a pure function of
// Params, useful for tests and for analytic calibration.
func (p Params) ExpectedLossAt(r float64) float64 {
	if p.Diverges {
		frac := 1 - math.Exp(-p.Rate*r)
		return p.Initial + (p.DivergeLevel-p.Initial)*frac
	}
	return p.Asymptote + (p.Initial-p.Asymptote)*math.Exp(-p.Rate*r)
}
