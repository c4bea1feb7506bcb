package curve

import (
	"math"

	"repro/internal/xrand"
)

// Surface is a smooth pseudo-random response surface over the unit cube.
// Each benchmark draws one Surface from its own seed and uses it to map
// encoded hyperparameter vectors to a quality score in [0, 1]; the
// benchmark then calibrates quality into loss asymptotes, convergence
// rates and costs.
//
// The surface is a weighted sum of per-dimension unimodal wells plus
// low-order pairwise interactions and a bounded high-frequency ripple.
// This gives the properties real tuning response surfaces show: a few
// parameters matter a lot, parameters interact, the top of the quality
// range is sparsely populated, and nearby configurations score similarly.
type Surface struct {
	dim     int
	opt     []float64  // per-dimension optimum location in [0,1]
	span    []float64  // per-dimension distance from opt to the far wall
	weight  []float64  // per-dimension importance, sums to 1
	power   []float64  // per-dimension well sharpness (>= 1)
	pow     []splitPow // power, split once for wellTerm
	pairs   []pairTerm
	rippleA float64
	rippleF []float64
	rippleP []float64
	// tabs holds the well and ripple terms of every level of each
	// dimension Tabulate was called on (empty for the others). Written
	// only before the surface's first use; read-only afterwards.
	tabs []levelTable
}

// levelTable is one discrete dimension's terms. Level k of n encodes to
// k/(n-1): a lookup rounds x*scale, then demands the stored input's bits.
type levelTable struct {
	scale  float64 // n-1
	levels []level
}

type level struct {
	x            uint64 // Float64bits of the encoded input
	well, ripple float64
}

// find returns the level whose input is exactly xi, or nil.
func (t *levelTable) find(xi float64) *level {
	k := int(xi*t.scale + 0.5)
	if uint(k) >= uint(len(t.levels)) || t.levels[k].x != math.Float64bits(xi) {
		return nil
	}
	return &t.levels[k]
}

type pairTerm struct {
	i, j int
	coef float64
}

// NewSurface draws a response surface of the given dimension from rng.
func NewSurface(rng *xrand.RNG, dim int) *Surface {
	if dim <= 0 {
		panic("curve: surface dimension must be positive")
	}
	s := &Surface{dim: dim, tabs: make([]levelTable, dim)}
	s.opt = make([]float64, dim)
	s.span = make([]float64, dim)
	s.weight = make([]float64, dim)
	s.power = make([]float64, dim)
	s.pow = make([]splitPow, dim)
	total := 0.0
	for i := 0; i < dim; i++ {
		s.opt[i] = rng.Uniform(0.15, 0.85)
		// Normalize so the worst corner of the well scores 0.
		s.span[i] = math.Max(s.opt[i], 1-s.opt[i])
		// Importance follows a heavy-ish tail so a few dimensions
		// dominate, as in real hyperparameter spaces.
		w := math.Exp(rng.Normal(0, 1))
		s.weight[i] = w
		total += w
		s.power[i] = rng.Uniform(1.0, 2.5)
		s.pow[i] = newSplitPow(s.power[i])
	}
	for i := range s.weight {
		s.weight[i] /= total
	}
	// A handful of pairwise interactions.
	npairs := dim / 2
	for p := 0; p < npairs; p++ {
		s.pairs = append(s.pairs, pairTerm{
			i:    rng.IntN(dim),
			j:    rng.IntN(dim),
			coef: rng.Uniform(-0.15, 0.15),
		})
	}
	s.rippleA = rng.Uniform(0.01, 0.04)
	s.rippleF = make([]float64, dim)
	s.rippleP = make([]float64, dim)
	for i := 0; i < dim; i++ {
		s.rippleF[i] = rng.Uniform(2, 6)
		s.rippleP[i] = rng.Uniform(0, 2*math.Pi)
	}
	return s
}

// wellTerm is dimension i's weighted well at xi, rounded explicitly so no
// compiler fuses it into the sum: stored or computed, it is one float.
func (s *Surface) wellTerm(i int, xi float64) float64 {
	d := math.Abs(xi - s.opt[i])
	well := 1 - s.pow[i].at(d/s.span[i])
	return float64(s.weight[i] * well)
}

// splitPow is math.Pow(x, p) for one p, split once as Pow splits it on
// every call: p = k + f, f in (-1/2, 1/2]. For x in (2^-200, 1) and k <= 3
// its products are Pow's, taken in Pow's order but off by an exact power
// of two, so the result is the same float (DESIGN.md, "A simulated
// trial"). Elsewhere it calls Pow.
type splitPow struct {
	p, f float64
	k    int // -1: always math.Pow
}

func newSplitPow(p float64) splitPow {
	k, f := math.Modf(p)
	if f > 0.5 {
		f, k = f-1, k+1
	}
	if !(p > 0) || p == 0.5 || f == 0 || k > 3 {
		k = -1 // Pow special-cases 0.5; a NaN or Inf p lands here too
	}
	return splitPow{p: p, f: f, k: int(k)}
}

func (s splitPow) at(x float64) float64 {
	if s.k < 0 || !(x > 0x1p-200 && x < 1) {
		return math.Pow(x, s.p)
	}
	a := math.Exp(s.f * math.Log(x))
	if s.k&1 != 0 {
		a *= x
	}
	if s.k&2 != 0 {
		a *= x * x
	}
	return float64(a) // never fused into the well's 1 - x^p
}

// rippleTerm is dimension i's ripple at xi.
func (s *Surface) rippleTerm(i int, xi float64) float64 {
	return math.Sin(s.rippleF[i]*xi*2*math.Pi + s.rippleP[i])
}

// Tabulate precomputes dimension i's well and ripple terms at xs, the
// encoded inputs of its levels in order (level k of n at k/(n-1)). Call
// it before the surface is shared: Eval reads tables unsynchronised.
func (s *Surface) Tabulate(i int, xs []float64) {
	t := levelTable{scale: float64(len(xs) - 1), levels: make([]level, len(xs))}
	for k, x := range xs {
		t.levels[k] = level{x: math.Float64bits(x), well: s.wellTerm(i, x), ripple: s.rippleTerm(i, x)}
	}
	s.tabs[i] = t
}

// Quality maps a unit-cube point to a score in [0, 1]; higher is better.
// It computes every term and is the reference Eval is tested against.
func (s *Surface) Quality(x []float64) float64 { return s.eval(x, nil) }

// Eval returns Quality(x), bit for bit, reading a tabulated dimension's
// terms from its table when x[i] is exactly a tabulated input. The terms
// are the same floats summed in the same order either way, so an
// off-grid x[i] (a PBT perturbation, a GP proposal) only costs more.
func (s *Surface) Eval(x []float64) float64 { return s.eval(x, s.tabs) }

func (s *Surface) eval(x []float64, tabs []levelTable) float64 {
	if len(x) != s.dim {
		panic("curve: Quality dimension mismatch")
	}
	q, ripple := 0.0, 0.0
	for i, xi := range x {
		if tabs != nil {
			if lv := tabs[i].find(xi); lv != nil {
				q += lv.well
				ripple += lv.ripple
				continue
			}
		}
		q += s.wellTerm(i, xi)
		ripple += s.rippleTerm(i, xi)
	}
	for _, pt := range s.pairs {
		q += pt.coef * (x[pt.i] - 0.5) * (x[pt.j] - 0.5)
	}
	q += s.rippleA * ripple / float64(s.dim)
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}
