// Package workload defines the benchmark tasks used throughout the
// paper's evaluation as surrogate workloads: each benchmark couples a
// hyperparameter search space (transcribed from the paper) with a
// calibrated response surface that maps configurations to learning-curve
// parameters (see internal/curve and DESIGN.md, "Substitutions").
package workload

import (
	"math"
	"sort"
	"sync"

	"repro/internal/curve"
	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// Benchmark is a tuning task: a search space plus a mapping from
// configurations to (surrogate) training dynamics.
type Benchmark struct {
	name  string
	space *searchspace.Space
	// R is the maximum resource per configuration (iterations, epochs,
	// or training examples, depending on the benchmark).
	maxResource float64
	// timeR is the mean wall-clock time (in the benchmark's time unit,
	// minutes for all paper tasks) to train one configuration for R.
	timeR float64

	seed uint64
	root *xrand.RNG
	*surfaces

	cal Calibration
}

// Calibration maps surface quality scores into concrete learning-curve
// parameters for one benchmark.
type Calibration struct {
	// InitialLoss is the loss of an untrained model (random guessing).
	InitialLoss float64
	// BestLoss and WorstLoss bound the asymptote range. A configuration
	// at quality percentile u (its rank among random configurations)
	// converges to
	//   BestLoss + (WorstLoss-BestLoss) * (1-u)^(1/Hardness),
	// so P(asymptote <= BestLoss + span*t) = t^Hardness: larger
	// Hardness makes good configurations rarer. The percentile is
	// estimated once per benchmark from a fixed Monte-Carlo sample, so
	// the map is deterministic.
	BestLoss, WorstLoss float64
	// Hardness > 0 controls the density of good configurations (see
	// BestLoss). Values are calibrated per benchmark against the
	// paper's figures in calibration_test.go.
	Hardness float64
	// RateLo and RateHi bound kappa, the number of exponential time
	// constants a configuration completes over the full resource R:
	// rate per resource unit = kappa / R.
	RateLo, RateHi float64
	// RateCouple in [0, 1] is the fraction of the convergence-rate
	// signal driven by the configuration's quality percentile rather
	// than by the independent speed surface. Real tuning curves show
	// this coupling — configurations that end better usually also learn
	// faster — and early stopping relies on it: low-rung losses must
	// carry signal about final quality. Zero leaves rate and quality
	// independent.
	RateCouple float64
	// NoiseSD is the validation-observation noise.
	NoiseSD float64
	// CostSpread returns a positive multiplier on training time for a
	// configuration (1 = average). nil means constant cost. It and
	// Diverges see only configurations the benchmark's space owns, so
	// they may read parameters by index (cfg.At).
	CostSpread func(cfg searchspace.Config) float64
	// CostQuality couples training cost to configuration quality: the
	// returned multiplier is applied on top of CostSpread, as a function
	// of the quality percentile u. Real spaces often show this coupling
	// (the best language models in Table 2's space are the largest and
	// slowest ones). The caller should normalize f so that the mean over
	// u ~ U(0,1) is 1. nil disables the coupling.
	CostQuality func(u float64) float64
	// Diverges marks configurations whose training blows up; they head
	// toward DivergeLevel instead of their asymptote. nil means no
	// configuration diverges.
	Diverges     func(cfg searchspace.Config) bool
	DivergeLevel float64
	// Idiosyncrasy adds deterministic config-level variation to the
	// asymptote (uniform on +/- Idiosyncrasy), modelling the fine-scale
	// ruggedness of real loss landscapes: infinitesimally close
	// configurations do not have infinitesimally close outcomes, which
	// bounds how far local refinement (GP jitter proposals, PBT
	// perturbation chains) can dig below the noise floor. Zero disables
	// it.
	Idiosyncrasy float64
	// Plasticity models optimization path dependence: when a trial's
	// hyperparameters change mid-training (PBT's exploit/explore), the
	// achievable asymptote degrades by
	//   Plasticity * (resource consumed / R) * (WorstLoss - BestLoss)
	// per switch, accumulating over switches. Weights trained far into
	// one configuration's trajectory cannot fully realize another's
	// from-scratch quality (e.g. burnt-in learning-rate schedules).
	// Zero disables the effect.
	Plasticity float64
}

// surfaces is what a benchmark derives from (name, seed, space) alone:
// built once, then shared read-only by every Benchmark with that key.
type surfaces struct {
	quality *curve.Surface // config -> asymptote quality
	speed   *curve.Surface // config -> convergence-rate factor
	// qcdf holds sorted quality scores of a fixed Monte-Carlo sample,
	// used to convert raw quality into a percentile.
	qcdf []float64
	// qidx[j] is sort.SearchFloat64s(qcdf, j/qidxBuckets): a score in
	// bucket j ranks somewhere in qcdf[qidx[j]:qidx[j+1]].
	qidx []int32
}

const (
	// qidxBuckets is a power of two, so j/qidxBuckets is exact.
	qidxBuckets = 1 << 12
	// maxTabulatedLevels bounds the per-level tables of one IntUniform
	// dimension (24 bytes a level per surface, 16 per cost factor).
	maxTabulatedLevels = 1 << 12
)

// surfaceCache memoizes surfaces per (benchmark name, seed, dimension,
// space fingerprint), of which they are a pure function: benchmarks
// constructed repeatedly — every experiment repetition builds one —
// share one immutable set instead of 2^17 surface evaluations each.
var surfaceCache sync.Map // surfaceKey -> *surfaces

type surfaceKey struct {
	name string
	seed uint64
	dim  int
	fp   uint64 // space fingerprint, so same-named custom spaces differ
}

// spaceFingerprint hashes the space's parameter definitions (FNV-1a over
// names, types and bounds) so the memoization caches cannot confuse two
// spaces that share a benchmark name or seed.
func spaceFingerprint(space *searchspace.Space) uint64 {
	h := xrand.NewFNV64()
	for _, p := range space.Params() {
		h.String(p.Name)
		h.Uint64(uint64(p.Type))
		h.Uint64(math.Float64bits(p.Lo))
		h.Uint64(math.Float64bits(p.Hi))
		for _, c := range p.Choices {
			h.Uint64(math.Float64bits(c))
		}
	}
	return h.Sum()
}

// NewBenchmark assembles a surrogate benchmark. Exported for tests and
// for users defining custom surrogate tasks through the public API.
func NewBenchmark(name string, space *searchspace.Space, maxResource, timeR float64, seed uint64, cal Calibration) *Benchmark {
	b := &Benchmark{
		name:        name,
		space:       space,
		maxResource: maxResource,
		timeR:       timeR,
		seed:        seed,
		root:        xrand.New(seed),
		cal:         cal,
	}
	key := surfaceKey{name: name, seed: seed, dim: space.Dim(), fp: spaceFingerprint(space)}
	cached, ok := surfaceCache.Load(key)
	if !ok {
		cached, _ = surfaceCache.LoadOrStore(key, newSurfaces(b.root, space, seed))
	}
	b.surfaces = cached.(*surfaces)
	return b
}

func newSurfaces(root *xrand.RNG, space *searchspace.Space, seed uint64) *surfaces {
	sf := &surfaces{
		quality: curve.NewSurface(root.Split("quality-surface"), space.Dim()),
		speed:   curve.NewSurface(root.Split("speed-surface"), space.Dim()),
	}
	// A discrete dimension takes few distinct encoded values: compute
	// each surface's terms at every one of them once, here.
	for i, p := range space.Params() {
		if vs := levelValues(p); len(vs) > 0 {
			xs := make([]float64, len(vs))
			for k, v := range vs {
				xs[k] = p.Encode(v)
			}
			sf.quality.Tabulate(i, xs)
			sf.speed.Tabulate(i, xs)
		}
	}
	// Fixed-seed Monte-Carlo estimate of the quality distribution; the
	// asymptote map is a pure function of it. The sample is large so the
	// tail of the asymptote distribution keeps its power-law shape out
	// to the ~10^5 configurations the large-scale experiments draw.
	cdfRNG := xrand.New(seed ^ 0xCDF_0000_0000_0001)
	const cdfSamples = 1 << 17
	sf.qcdf = make([]float64, cdfSamples)
	buf := make([]float64, space.Dim())
	for i := range sf.qcdf {
		space.SampleEncoded(cdfRNG, buf)
		sf.qcdf[i] = sf.quality.Eval(buf)
	}
	sort.Float64s(sf.qcdf)
	sf.qidx = make([]int32, qidxBuckets+1)
	for j := range sf.qidx {
		sf.qidx[j] = int32(sort.SearchFloat64s(sf.qcdf, float64(j)/qidxBuckets))
	}
	return sf
}

// levelValues returns every level of a discrete parameter, in order;
// none for a continuous or too finely divided one. An IntUniform
// parameter's level k is levels[0]+k.
func levelValues(p searchspace.Param) []float64 {
	switch {
	case p.Type == searchspace.Choice:
		return p.Choices
	case p.Type == searchspace.IntUniform && p.Hi-p.Lo < maxTabulatedLevels:
		var vs []float64
		for v := int(p.Lo); v <= int(p.Hi); v++ {
			vs = append(vs, float64(v))
		}
		return vs
	}
	return nil
}

// rank is sort.SearchFloat64s(b.qcdf, q), searching only the bucket of
// qidx that q falls in.
func (b *Benchmark) rank(q float64) int {
	j := int(q * qidxBuckets)
	if j < 0 || j >= qidxBuckets || q < float64(j)/qidxBuckets || q > float64(j+1)/qidxBuckets {
		return sort.SearchFloat64s(b.qcdf, q)
	}
	lo, hi := int(b.qidx[j]), int(b.qidx[j+1])
	return lo + sort.SearchFloat64s(b.qcdf[lo:hi], q)
}

// percentile converts a raw quality score into its rank u in [0, 1]
// against the benchmark's sampled quality distribution. The map is
// strictly increasing in q — it interpolates linearly between sampled
// quantiles and extrapolates beyond them toward q = 0 and q = 1 — so
// distinct configurations get distinct asymptotes rather than being
// quantized into Monte-Carlo buckets.
func (b *Benchmark) percentile(q float64) float64 {
	n := len(b.qcdf)
	nf := float64(n + 1)
	idx := b.rank(q)
	var u float64
	switch {
	case idx == 0:
		// Below the sampled minimum: interpolate down to q = 0.
		lo := b.qcdf[0]
		frac := 1.0
		if lo > 1e-12 {
			frac = q / lo
		}
		u = frac * 0.5 / nf
	case idx == n:
		// Above the sampled maximum: interpolate up to q = 1, where the
		// asymptote reaches BestLoss exactly.
		hi := b.qcdf[n-1]
		span := 1 - hi
		frac := 1.0
		if span > 1e-12 {
			frac = (q - hi) / span
			if frac > 1 {
				frac = 1
			}
		}
		u = (float64(n) - 0.5 + frac*1.5) / nf
	default:
		a, c := b.qcdf[idx-1], b.qcdf[idx]
		frac := 0.5
		if c > a {
			frac = (q - a) / (c - a)
		}
		u = (float64(idx-1) + 0.5 + frac) / nf
	}
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Name returns the benchmark's identifier.
func (b *Benchmark) Name() string { return b.name }

// Space returns the benchmark's hyperparameter search space.
func (b *Benchmark) Space() *searchspace.Space { return b.space }

// MaxResource returns R, the maximum resource per configuration.
func (b *Benchmark) MaxResource() float64 { return b.maxResource }

// MeanTimeR returns the calibrated mean wall-clock time to train a
// configuration for the full resource R.
func (b *Benchmark) MeanTimeR() float64 { return b.timeR }

// ParamsFor deterministically maps a configuration to its learning-curve
// parameters. It runs at every trial creation and config switch (three
// simulated jobs in four at 500 workers), so the encoding buffer lives
// on the stack for every paper space (dim <= 16). A configuration under
// another name table is brought into the space's order first: the
// calibration's closures read parameters by the space's index.
func (b *Benchmark) ParamsFor(cfg searchspace.Config) curve.Params {
	if !b.space.Owns(cfg) {
		cfg = b.space.FromMap(cfg.Map())
	}
	var xbuf [16]float64
	var x []float64
	if d := b.space.Dim(); d <= len(xbuf) {
		x = xbuf[:d]
	} else {
		x = make([]float64, d)
	}
	b.space.EncodeInto(cfg, x)
	q := b.quality.Eval(x)
	u := b.percentile(q)
	asym := b.cal.BestLoss + (b.cal.WorstLoss-b.cal.BestLoss)*math.Pow(1-u, 1/b.cal.Hardness)
	mix := (1-b.cal.RateCouple)*b.speed.Eval(x) + b.cal.RateCouple*u
	kappa := b.cal.RateLo + (b.cal.RateHi-b.cal.RateLo)*mix
	cost := b.timeR / b.maxResource
	if b.cal.CostSpread != nil {
		cost *= b.cal.CostSpread(cfg)
	}
	if b.cal.CostQuality != nil {
		cost *= b.cal.CostQuality(u)
	}
	if b.cal.Idiosyncrasy > 0 {
		asym += (hash01(x) - 0.5) * 2 * b.cal.Idiosyncrasy
	}
	p := curve.Params{
		Initial:     b.cal.InitialLoss,
		Asymptote:   asym,
		Rate:        kappa / b.maxResource,
		NoiseSD:     b.cal.NoiseSD,
		CostPerUnit: cost,
	}
	if b.cal.Diverges != nil && b.cal.Diverges(cfg) {
		p.Diverges = true
		p.DivergeLevel = b.cal.DivergeLevel
	}
	return p
}

// Trial is one configuration's stateful training run: one record, not
// to be copied once initialised (the trainer points at the RNG beside it).
type Trial struct {
	ID      int
	bench   *Benchmark
	cfg     searchspace.Config
	trainer curve.Trainer
	noise   xrand.RNG
	// handicap is the accumulated plasticity penalty on the asymptote
	// from mid-training configuration switches.
	handicap float64
}

// NewTrial creates a trial for cfg. The trial id seeds the observation
// noise stream so repeated experiments are reproducible.
func (b *Benchmark) NewTrial(id int, cfg searchspace.Config) *Trial {
	t := new(Trial)
	b.InitTrial(t, id, cfg.Clone())
	return t
}

// InitTrial is NewTrial for a trial record the caller owns (the
// simulator cuts them from a slab). The trial keeps cfg, not a copy: the
// caller passes a configuration nothing will write to, such as one a
// scheduler has issued (core.Job.Config), and concurrent runs may each
// hold one of their own against the same Benchmark.
func (b *Benchmark) InitTrial(t *Trial, id int, cfg searchspace.Config) {
	t.ID, t.bench, t.cfg, t.handicap = id, b, cfg, 0
	b.root.SplitIndexInto(&t.noise, "trial-noise", id)
	t.trainer.Init(b.ParamsFor(cfg), &t.noise)
}

// Config returns the trial's current configuration.
func (t *Trial) Config() searchspace.Config { return t.cfg }

// Train advances the trial by dr resource units and returns the observed
// validation loss.
func (t *Trial) Train(dr float64) float64 { return t.trainer.Train(dr) }

// TrueLoss returns the noiseless current loss (the harness's "test"
// metric).
func (t *Trial) TrueLoss() float64 { return t.trainer.TrueLoss() }

// Resource returns the cumulative resource trained.
func (t *Trial) Resource() float64 { return t.trainer.Resource() }

// CostPerUnit returns the wall-clock time per resource unit for the
// trial's current configuration.
func (t *Trial) CostPerUnit() float64 { return t.trainer.Params().CostPerUnit }

// TrialState is a full trial checkpoint: the learning-curve state plus
// the accumulated plasticity handicap.
type TrialState struct {
	Curve    curve.State
	Handicap float64
}

// Checkpoint captures the training state for failure recovery.
func (t *Trial) Checkpoint() TrialState {
	return TrialState{Curve: t.trainer.Checkpoint(), Handicap: t.handicap}
}

// Restore rewinds to a checkpoint.
func (t *Trial) Restore(s TrialState) {
	t.trainer.Restore(s.Curve)
	t.handicap = s.Handicap
}

// SetConfig swaps the trial's hyperparameters while keeping its trained
// state, as PBT's explore step does after inheriting weights. Under a
// benchmark with non-zero Plasticity, each mid-training switch degrades
// the achievable asymptote in proportion to the resource already
// consumed (see Calibration.Plasticity). The trial keeps cfg, not a
// copy, as InitTrial does.
func (t *Trial) SetConfig(cfg searchspace.Config) {
	cal := t.bench.cal
	if cal.Plasticity > 0 && t.trainer.Resource() > 0 {
		t.handicap += cal.Plasticity * (t.trainer.Resource() / t.bench.maxResource) *
			(cal.WorstLoss - cal.BestLoss)
	}
	t.cfg = cfg
	p := t.bench.ParamsFor(cfg)
	p.Asymptote += t.handicap
	t.trainer.SetParams(p)
}

// InheritFrom copies src's training state ("weights") into t, as PBT's
// exploit step does. The donor's accumulated plasticity handicap travels
// with its weights.
func (t *Trial) InheritFrom(src *Trial) {
	t.trainer.InheritFrom(&src.trainer)
	t.handicap = src.handicap
}

// hash01 deterministically maps an encoded configuration to [0, 1):
// FNV-1a 64 over the little-endian float bits (allocation-free — this
// sits on the per-trial path).
func hash01(x []float64) float64 {
	h := xrand.NewFNV64()
	for _, v := range x {
		h.Uint64(math.Float64bits(v))
	}
	return float64(h.Sum()>>11) / float64(1<<53)
}
