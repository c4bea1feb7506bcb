package core

import (
	"fmt"
	"math"

	"repro/internal/bayesopt"
	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// FabolasConfig parameterizes the Fabolas-like comparator (Klein et al.
// 2017): continuous-fidelity Bayesian optimization where the dataset
// fraction used for training is itself an optimization variable.
//
// This is a documented simplification of Fabolas (see DESIGN.md): the
// information-gain-per-cost acquisition is replaced by expected
// improvement at full fidelity, discounted by the kernel correlation
// between the queried fidelity and full fidelity, per unit cost. The
// qualitative behaviour — cheap low-fidelity queries early, a
// predicted-loss incumbent with higher variance than Hyperband's — is
// preserved.
type FabolasConfig struct {
	Space       *searchspace.Space
	RNG         *xrand.RNG
	MaxResource float64
	// Fidelities is the grid of resource fractions the optimizer may
	// query (default {1/64, 1/16, 1/4, 1}).
	Fidelities []float64
	// InitRandom is the number of initial random (config, low-fidelity)
	// probes (default 2*dim+2).
	InitRandom int
	// Candidates is the EI candidate pool size (default 256).
	Candidates int
	// MaxObservations caps the GP training set (default 200).
	MaxObservations int
}

// fabObs is one (config, fidelity) evaluation.
type fabObs struct {
	cfg      searchspace.Config
	x        []float64 // encoded config ++ fidelity coordinate
	loss     float64
	trueLoss float64
	fidelity float64
	trialID  int
}

// Fabolas is the multi-fidelity GP optimizer. Each evaluation trains a
// fresh configuration to fraction*R; the incumbent is the evaluated
// configuration with the lowest GP-predicted loss at full fidelity.
type Fabolas struct {
	cfg    FabolasConfig
	gp     *bayesopt.GP
	obs    []fabObs
	trials map[int]fabObs
	retry  retryQueue
	nextID int
	// incumbent by predicted full-fidelity loss.
	incBest   Best
	incSet    bool
	initProbe int
}

// NewFabolas constructs the comparator. It panics on invalid
// configuration.
func NewFabolas(cfg FabolasConfig) *Fabolas {
	if cfg.Space == nil || cfg.RNG == nil {
		panic(fmt.Errorf("core: Fabolas requires a space and an RNG"))
	}
	if cfg.MaxResource <= 0 {
		panic(fmt.Errorf("core: Fabolas requires a positive max resource"))
	}
	if len(cfg.Fidelities) == 0 {
		cfg.Fidelities = []float64{1.0 / 64, 1.0 / 16, 1.0 / 4, 1}
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
	return &Fabolas{
		cfg:    cfg,
		gp:     bayesopt.NewGP(0.25, 0.05),
		trials: make(map[int]fabObs),
	}
}

// encode appends the fidelity coordinate (log-scaled so that each
// fidelity step is equidistant) to the encoded configuration.
func (f *Fabolas) encode(cfg searchspace.Config, fidelity float64) []float64 {
	x := f.cfg.Space.Encode(cfg)
	minF := f.cfg.Fidelities[0]
	s := 1.0
	if minF < 1 {
		s = 1 - math.Log(fidelity)/math.Log(minF) // minF -> 0, 1 -> 1
	}
	return append(x, s)
}

// Next proposes the next (config, fidelity) probe.
func (f *Fabolas) Next() (Job, bool) {
	if job, ok := f.retry.pop(); ok {
		return job, true
	}
	var cfg searchspace.Config
	var fidelity float64
	if f.initProbe < f.cfg.InitRandom {
		cfg = f.cfg.Space.Sample(f.cfg.RNG)
		// Initial design sweeps the lower fidelities, as Fabolas does.
		fidelity = f.cfg.Fidelities[f.initProbe%maxInt(1, len(f.cfg.Fidelities)-1)]
		f.initProbe++
	} else {
		cfg, fidelity = f.propose()
	}
	id := f.nextID
	f.nextID++
	ob := fabObs{cfg: cfg, fidelity: fidelity, trialID: id}
	f.trials[id] = ob
	return Job{
		TrialID:        id,
		Config:         cfg,
		Rung:           0,
		TargetResource: fidelity * f.cfg.MaxResource,
		InheritFrom:    -1,
	}, true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// propose fits the GP and maximizes EI(full fidelity) * corr(fidelity,
// full) / cost(fidelity) over random candidates crossed with the
// fidelity grid.
func (f *Fabolas) propose() (searchspace.Config, float64) {
	f.fit()
	best := math.Inf(1)
	for _, o := range f.obs {
		// Compare at (approximately) full fidelity only.
		if o.fidelity >= f.cfg.Fidelities[len(f.cfg.Fidelities)-1]*0.999 {
			if o.loss < best {
				best = o.loss
			}
		}
	}
	if math.IsInf(best, 1) && len(f.obs) > 0 {
		// No full-fidelity observation yet; use the best seen anywhere.
		for _, o := range f.obs {
			if o.loss < best {
				best = o.loss
			}
		}
	}
	dim := f.cfg.Space.Dim()
	type cand struct {
		cfg      searchspace.Config
		fidelity float64
		score    float64
	}
	bestCand := cand{score: math.Inf(-1)}
	for i := 0; i < f.cfg.Candidates; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = f.cfg.RNG.Float64()
		}
		cfg := f.cfg.Space.Decode(x)
		muFull, sigmaFull := f.gp.Predict(f.encode(cfg, 1))
		ei := bayesopt.ExpectedImprovement(muFull, sigmaFull, best)
		for _, fid := range f.cfg.Fidelities {
			// Correlation between the probe's fidelity coordinate and
			// full fidelity under the Matérn kernel: probing low
			// fidelity tells us less about the full-data loss.
			sProbe := f.encode(cfg, fid)[dim]
			corr := maternCorr(1-sProbe, f.gp.LengthScale)
			score := ei * corr / fid
			if score > bestCand.score {
				bestCand = cand{cfg: cfg, fidelity: fid, score: score}
			}
		}
	}
	if bestCand.cfg.IsZero() {
		return f.cfg.Space.Sample(f.cfg.RNG), f.cfg.Fidelities[len(f.cfg.Fidelities)-1]
	}
	return bestCand.cfg, bestCand.fidelity
}

// maternCorr is the Matérn-5/2 correlation at distance d with length
// scale l.
func maternCorr(d, l float64) float64 {
	s5 := math.Sqrt(5) * d / l
	return (1 + s5 + 5*d*d/(3*l*l)) * math.Exp(-s5)
}

func (f *Fabolas) fit() {
	n := len(f.obs)
	if n == 0 {
		return
	}
	start := 0
	if n > f.cfg.MaxObservations {
		start = n - f.cfg.MaxObservations
	}
	x := make([][]float64, 0, n-start)
	y := make([]float64, 0, n-start)
	for _, o := range f.obs[start:] {
		x = append(x, o.x)
		y = append(y, o.loss)
	}
	// A failed fit leaves the previous posterior; proposals degrade
	// gracefully.
	_ = f.gp.Fit(x, y)
}

// Report records the observation and recomputes the predicted-loss
// incumbent.
func (f *Fabolas) Report(res Result) {
	ob, known := f.trials[res.TrialID]
	if !known {
		return
	}
	if res.Failed {
		f.retry.push(Job{
			TrialID:        res.TrialID,
			Config:         ob.cfg,
			Rung:           0,
			TargetResource: ob.fidelity * f.cfg.MaxResource,
			InheritFrom:    -1,
		})
		return
	}
	ob.loss = res.Loss
	ob.trueLoss = res.TrueLoss
	ob.x = f.encode(ob.cfg, ob.fidelity)
	f.trials[res.TrialID] = ob
	f.obs = append(f.obs, ob)
	f.updateIncumbent()
}

// updateIncumbent selects the evaluated configuration with the lowest
// GP-predicted loss at full fidelity (Appendix A.2's accounting for
// Fabolas).
func (f *Fabolas) updateIncumbent() {
	if len(f.obs) < 3 {
		// Too little data for prediction; fall back to best observed.
		bi := 0
		for i, o := range f.obs {
			if o.loss < f.obs[bi].loss {
				bi = i
			}
		}
		o := f.obs[bi]
		f.incBest = Best{TrialID: o.trialID, Config: o.cfg, Loss: o.loss, TrueLoss: o.trueLoss, Resource: o.fidelity * f.cfg.MaxResource}
		f.incSet = true
		return
	}
	f.fit()
	bestPred := math.Inf(1)
	var pick fabObs
	for _, o := range f.obs {
		mu, _ := f.gp.Predict(f.encode(o.cfg, 1))
		if mu < bestPred {
			bestPred = mu
			pick = o
		}
	}
	f.incBest = Best{TrialID: pick.trialID, Config: pick.cfg, Loss: pick.loss, TrueLoss: pick.trueLoss, Resource: pick.fidelity * f.cfg.MaxResource}
	f.incSet = true
}

// Best returns the predicted-loss incumbent.
func (f *Fabolas) Best() (Best, bool) { return f.incBest, f.incSet }

// Done always reports false.
func (f *Fabolas) Done() bool { return false }
