package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bayesopt"
	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// VizierConfig parameterizes the Vizier-like comparator: batched
// Gaussian-process bandit optimization with expected improvement and a
// constant-liar heuristic for pending evaluations, training every
// configuration to the full resource R (Section 4.3 compares against
// Vizier *without* its performance-curve early-stopping rule).
type VizierConfig struct {
	Space       *searchspace.Space
	RNG         *xrand.RNG
	MaxResource float64
	// InitRandom is the number of initial uniformly random
	// configurations before the model is trusted (default 2*dim+2).
	InitRandom int
	// Candidates is the size of the EI candidate pool per proposal
	// (default 256 random + 64 perturbations of the best point).
	Candidates int
	// MaxObservations caps the GP training-set size for O(n^3)
	// tractability; the most recent observations are kept together with
	// the best ones (default 200).
	MaxObservations int
	// LossCap clips observed losses before modelling; Section 4.3
	// describes capping perplexities at 1000 to protect Vizier from the
	// orders-of-magnitude outliers. Zero disables capping.
	LossCap float64
	// RefitEvery controls how often (in proposals) the GP is refit;
	// between refits proposals reuse the cached posterior plus fresh
	// constant liars (default 1 = every proposal).
	RefitEvery int
}

// Vizier is the GP + EI + constant-liar optimizer.
type Vizier struct {
	cfg      VizierConfig
	gp       *bayesopt.GP
	dirty    bool
	sinceFit int

	trials map[int]searchspace.Config
	// pending are the trials issued and not yet reported, in issue order
	// (ascending IDs): which of them stand in as constant liars, and in
	// what row order the GP sees them, must not vary run to run.
	pending []int
	obsX    [][]float64
	obsY    []float64
	retry   retryQueue
	nextID  int
	inc     incumbent
}

// NewVizier constructs the comparator. It panics on invalid
// configuration.
func NewVizier(cfg VizierConfig) *Vizier {
	if cfg.Space == nil || cfg.RNG == nil {
		panic(fmt.Errorf("core: Vizier requires a space and an RNG"))
	}
	if cfg.MaxResource <= 0 {
		panic(fmt.Errorf("core: Vizier requires a positive max resource"))
	}
	if cfg.InitRandom == 0 {
		cfg.InitRandom = 2*cfg.Space.Dim() + 2
	}
	if cfg.Candidates == 0 {
		cfg.Candidates = 256
	}
	if cfg.MaxObservations == 0 {
		cfg.MaxObservations = 200
	}
	if cfg.RefitEvery == 0 {
		cfg.RefitEvery = 1
	}
	return &Vizier{
		cfg:    cfg,
		gp:     bayesopt.NewGP(0.25, 0.05),
		trials: make(map[int]searchspace.Config),
		dirty:  true,
	}
}

// Next proposes a configuration by maximizing expected improvement under
// the current posterior (with constant liars standing in for pending
// jobs) and trains it to the full resource.
func (v *Vizier) Next() (Job, bool) {
	if job, ok := v.retry.pop(); ok {
		return job, true
	}
	var cfg searchspace.Config
	if len(v.obsY) < v.cfg.InitRandom {
		cfg = v.cfg.Space.Sample(v.cfg.RNG)
	} else {
		cfg = v.propose()
	}
	id := v.nextID
	v.nextID++
	v.trials[id] = cfg
	v.pending = append(v.pending, id)
	return Job{TrialID: id, Config: cfg, Rung: 0, TargetResource: v.cfg.MaxResource, InheritFrom: -1}, true
}

// propose refits the GP (per RefitEvery) on capped observations plus
// constant liars for pending jobs, then maximizes EI over a candidate
// pool of random points and local perturbations of the best point.
func (v *Vizier) propose() searchspace.Config {
	if v.dirty || v.sinceFit >= v.cfg.RefitEvery {
		v.fit()
	}
	v.sinceFit++

	best := math.Inf(1)
	var bestX []float64
	for i, y := range v.obsY {
		if y < best {
			best = y
			bestX = v.obsX[i]
		}
	}
	dim := v.cfg.Space.Dim()
	bestEI := math.Inf(-1)
	var bestCand []float64
	consider := func(x []float64) {
		mu, sigma := v.gp.Predict(x)
		ei := bayesopt.ExpectedImprovement(mu, sigma, best)
		if ei > bestEI {
			bestEI = ei
			bestCand = x
		}
	}
	for i := 0; i < v.cfg.Candidates; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = v.cfg.RNG.Float64()
		}
		consider(x)
	}
	if bestX != nil {
		for i := 0; i < v.cfg.Candidates/4; i++ {
			x := make([]float64, dim)
			for d := range x {
				x[d] = clamp01(bestX[d] + v.cfg.RNG.Normal(0, 0.05))
			}
			consider(x)
		}
	}
	if bestCand == nil {
		return v.cfg.Space.Sample(v.cfg.RNG)
	}
	return v.cfg.Space.Decode(bestCand)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// fit rebuilds the GP on the (possibly subsampled) observation set plus
// constant liars at the current median loss for pending configurations.
func (v *Vizier) fit() {
	x := make([][]float64, 0, len(v.obsX)+len(v.pending))
	y := make([]float64, 0, len(v.obsY)+len(v.pending))
	// Subsample if over the cap: keep the best third and the most
	// recent remainder, which preserves both the optimum neighborhood
	// and the current search frontier.
	idx := v.subsampleIdx()
	for _, i := range idx {
		x = append(x, v.obsX[i])
		y = append(y, v.obsY[i])
	}
	if len(y) > 0 {
		// Cap the number of liars so the O(n^3) fit stays bounded even
		// with hundreds of workers; a subsample of pending points is
		// enough to repel the next proposals from in-flight regions.
		lie := median(y)
		for _, id := range v.pending[:min(len(v.pending), v.cfg.MaxObservations)] {
			x = append(x, v.cfg.Space.Encode(v.trials[id]))
			y = append(y, lie)
		}
	}
	if len(y) == 0 {
		return
	}
	// Fit errors (degenerate kernels) leave the previous posterior in
	// place; proposals degrade to near-random, which is safe.
	if err := v.gp.Fit(x, y); err == nil {
		v.dirty = false
		v.sinceFit = 0
	}
}

func (v *Vizier) subsampleIdx() []int {
	n := len(v.obsY)
	if n <= v.cfg.MaxObservations {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	keepBest := v.cfg.MaxObservations / 3
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Partial selection of the best keepBest by loss.
	for i := 0; i < keepBest; i++ {
		minJ := i
		for j := i + 1; j < n; j++ {
			if v.obsY[order[j]] < v.obsY[order[minJ]] {
				minJ = j
			}
		}
		order[i], order[minJ] = order[minJ], order[i]
	}
	idx := order[:keepBest:keepBest]
	// Most recent remainder.
	recent := v.cfg.MaxObservations - keepBest
	seen := make(map[int]bool, keepBest)
	for _, i := range idx {
		seen[i] = true
	}
	for i := n - 1; i >= 0 && recent > 0; i-- {
		if !seen[i] {
			idx = append(idx, i)
			recent--
		}
	}
	return idx
}

func median(y []float64) float64 {
	cp := append([]float64(nil), y...)
	// insertion-free selection via sort is fine at these sizes
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// Report records the final loss (clipped for modelling per LossCap) and
// updates the incumbent with the unclipped value.
func (v *Vizier) Report(res Result) {
	if res.Failed {
		// The trial stays pending: its retry is the same evaluation.
		v.retry.push(Job{
			TrialID:        res.TrialID,
			Config:         v.trials[res.TrialID],
			Rung:           0,
			TargetResource: v.cfg.MaxResource,
			InheritFrom:    -1,
		})
		return
	}
	if i, ok := slices.BinarySearch(v.pending, res.TrialID); ok {
		v.pending = slices.Delete(v.pending, i, i+1)
	}
	loss := res.Loss
	if v.cfg.LossCap > 0 && loss > v.cfg.LossCap {
		loss = v.cfg.LossCap
	}
	v.obsX = append(v.obsX, v.cfg.Space.Encode(res.Config))
	v.obsY = append(v.obsY, loss)
	v.dirty = true
	v.inc.observe(res)
}

// Best returns the best fully-trained configuration.
func (v *Vizier) Best() (Best, bool) { return v.inc.get() }

// Done always reports false.
func (v *Vizier) Done() bool { return false }
