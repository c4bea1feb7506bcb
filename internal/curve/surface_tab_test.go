package curve

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// tabulated returns two surfaces drawn from the same seed: a reference,
// and one with dimensions 0, 2 and 5 tabulated at 4, 71 and 1 levels.
func tabulated(seed uint64) (ref, tab *Surface, levels map[int]int) {
	const dim = 7
	ref = NewSurface(xrand.New(seed), dim)
	tab = NewSurface(xrand.New(seed), dim)
	levels = map[int]int{0: 4, 2: 71, 5: 1}
	for i, n := range levels {
		xs := make([]float64, n)
		for k := range xs {
			if n == 1 {
				xs[k] = 0.5
			} else {
				xs[k] = float64(k) / float64(n-1)
			}
		}
		tab.Tabulate(i, xs)
	}
	return ref, tab, levels
}

// parentQuality is Quality as it was written before the terms moved into
// wellTerm and rippleTerm and span was hoisted: three loops, span from
// opt on every call.
func parentQuality(s *Surface, x []float64) float64 {
	q := 0.0
	for i, xi := range x {
		d := math.Abs(xi - s.opt[i])
		span := math.Max(s.opt[i], 1-s.opt[i])
		if span <= 0 {
			span = 1
		}
		well := 1 - math.Pow(d/span, s.power[i])
		q += s.weight[i] * well
	}
	for _, pt := range s.pairs {
		q += pt.coef * (x[pt.i] - 0.5) * (x[pt.j] - 0.5)
	}
	ripple := 0.0
	for i, xi := range x {
		ripple += math.Sin(s.rippleF[i]*xi*2*math.Pi + s.rippleP[i])
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

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestEvalMatchesQualityBitForBit checks the tabulated path against the
// reference on grid points, on random points, and on inputs chosen to
// land beside, between and outside the tabulated levels.
func TestEvalMatchesQualityBitForBit(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ref, tab, levels := tabulated(seed)
		check := func(x []float64) {
			t.Helper()
			want := parentQuality(ref, x)
			if got := ref.Quality(x); !sameBits(got, want) {
				t.Fatalf("seed %d: Quality(%v) = %x, as first written %x", seed, x, math.Float64bits(got), math.Float64bits(want))
			}
			if got := tab.Eval(x); !sameBits(got, want) {
				t.Fatalf("seed %d: Eval(%v) = %x, Quality = %x", seed, x, math.Float64bits(got), math.Float64bits(want))
			}
			if got := tab.Quality(x); !sameBits(got, want) {
				t.Fatalf("seed %d: Quality of the tabulated surface differs at %v", seed, x)
			}
			if got := ref.Eval(x); !sameBits(got, want) {
				t.Fatalf("seed %d: Eval of the untabulated surface differs at %v", seed, x)
			}
		}
		rng := xrand.New(seed ^ 0xbeef)
		x := make([]float64, ref.Dim())
		for n := 0; n < 10000; n++ {
			for i := range x {
				x[i] = rng.Float64()
				// Two draws in three land exactly on a level.
				if lv, ok := levels[i]; ok && lv > 1 && n%3 != 0 {
					x[i] = float64(rng.IntN(lv)) / float64(lv-1)
				}
			}
			check(x)
		}
		// One coordinate at a time through every awkward value, the
		// others on the grid.
		awkward := []float64{
			0, math.Copysign(0, -1), 1, 0.5, 1.0 / 3, 2.0 / 3,
			math.Nextafter(0, 1), math.Nextafter(1, 0), math.Nextafter(1, 2),
			math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
			math.Nextafter(1.0/3, 0), math.Nextafter(1.0/3, 1),
			-0.25, 1.25, 3, -3, 1e300, -1e300,
			1.0 / 70, math.Nextafter(1.0/70, 1), 69.5 / 70, 35.0 / 70,
		}
		for i := range x {
			for _, v := range awkward {
				for j := range x {
					x[j] = 0.5
					if lv := levels[j]; lv > 1 {
						x[j] = float64(lv/2) / float64(lv-1)
					}
				}
				x[i] = v
				check(x)
			}
		}
	}
}

// TestEvalNonFinite: non-finite inputs take the computing path and give
// whatever Quality gives.
func TestEvalNonFinite(t *testing.T) {
	ref, tab, _ := tabulated(9)
	x := make([]float64, ref.Dim())
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := range x {
			for j := range x {
				x[j] = 0.5
			}
			x[i] = v
			want, got := ref.Quality(x), tab.Eval(x)
			if !sameBits(got, want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("x[%d]=%v: Eval %v, Quality %v", i, v, got, want)
			}
		}
	}
}

func TestTrainerInitMatchesNewTrainer(t *testing.T) {
	p := testParams()
	a := NewTrainer(p, xrand.New(5))
	var b Trainer
	b.Init(Params{Initial: 9, Rate: 1}, xrand.New(1))
	b.Train(3) // state an Init must wipe
	b.Init(p, xrand.New(5))
	for i := 0; i < 20; i++ {
		if la, lb := a.Train(7), b.Train(7); !sameBits(la, lb) {
			t.Fatalf("step %d: NewTrainer %v, Init %v", i, la, lb)
		}
	}
	if a.Checkpoint() != b.Checkpoint() {
		t.Fatal("checkpoints differ")
	}
}

// TestEveryLevelIsFound: a lookup that missed would still be right, only
// slow, so nothing else would notice. Every level of every table size a
// paper space has (and all sizes up to 1500) must be found from its own
// encoding, computed the way searchspace encodes integers and choices.
func TestEveryLevelIsFound(t *testing.T) {
	s := NewSurface(xrand.New(1), 1)
	for n := 1; n <= 1500; n++ {
		for _, lo := range []float64{0, 10, 200, -7} {
			hi := lo + float64(n-1)
			xs := make([]float64, n)
			for k := range xs {
				xs[k] = 0.5
				if n > 1 {
					xs[k] = (lo + float64(k) - lo) / (hi - lo)
				}
			}
			s.Tabulate(0, xs)
			for k, x := range xs {
				if lv := s.tabs[0].find(x); lv != &s.tabs[0].levels[k] {
					t.Fatalf("%d levels from %v: level %d (x=%v) not found", n, lo, k, x)
				}
			}
		}
	}
	if s.tabs[0].find(math.NaN()) != nil || s.tabs[0].find(-1) != nil || s.tabs[0].find(2) != nil {
		t.Fatal("found a level for an input outside the table")
	}
}

// FuzzSurfacePow holds the split power to math.Pow bit for bit, for any
// input and exponent; NaN matches NaN.
func FuzzSurfacePow(f *testing.F) {
	const tiny = 0x1p-200
	xs := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1022,
		math.Nextafter(tiny, 0), tiny, math.Nextafter(tiny, 1),
		0.3, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), math.Inf(1), math.NaN(),
	}
	for _, x := range xs {
		for _, p := range []float64{1, 1.5, 2, 2.5, 3.7, 0.5, 0.3, 2.7, 3.3} {
			f.Add(math.Float64bits(x), p)
		}
	}
	f.Fuzz(func(t *testing.T, xbits uint64, p float64) {
		x := math.Float64frombits(xbits)
		got, want := newSplitPow(p).at(x), math.Pow(x, p)
		if !sameBits(got, want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("x=%v (%#x) p=%v: split %v (%#x), math.Pow %v (%#x)",
				x, xbits, p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
