package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestMeanAndVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v, want 5", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v, want %v", v, 32.0/7)
	}
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("mean of empty slice should be NaN")
	}
}

func TestQuantileOrderStatistics(t *testing.T) {
	xs := []float64{1, 2, 3}
	if q := QuantileSorted(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := QuantileSorted(xs, 1); q != 3 {
		t.Fatalf("q1 = %v", q)
	}
	if q := QuantileSorted(xs, 0.5); q != 2 {
		t.Fatalf("median = %v", q)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if q := QuantileSorted(xs, 0.25); math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("q25 = %v, want 2.5", q)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	rng := xrand.New(1)
	f := func(n uint8) bool {
		m := int(n%50) + 2
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = rng.Normal(0, 10)
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := QuantileSorted(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDKWBound(t *testing.T) {
	// Known value: n=100, delta=0.05 -> sqrt(ln(40)/200).
	want := math.Sqrt(math.Log(2/0.05) / 200)
	if got := DKWBound(100, 0.05); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DKW = %v, want %v", got, want)
	}
	if !math.IsNaN(DKWBound(0, 0.05)) || !math.IsNaN(DKWBound(10, 0)) {
		t.Fatal("invalid inputs should yield NaN")
	}
}

func TestDKWShrinksWithN(t *testing.T) {
	if DKWBound(1000, 0.1) >= DKWBound(100, 0.1) {
		t.Fatal("DKW bound should shrink with n")
	}
}

func TestDKWHoldsEmpirically(t *testing.T) {
	// For uniform samples, sup |F_n - F| should respect the bound in
	// at least 95% of repetitions at delta = 0.05.
	rng := xrand.New(3)
	n := 200
	viol := 0
	reps := 200
	for rep := 0; rep < reps; rep++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		sort.Float64s(xs)
		sup := 0.0
		for i, x := range xs {
			hi := math.Abs(float64(i+1)/float64(n) - x)
			lo := math.Abs(float64(i)/float64(n) - x)
			sup = math.Max(sup, math.Max(hi, lo))
		}
		if sup > DKWBound(n, 0.05) {
			viol++
		}
	}
	if frac := float64(viol) / float64(reps); frac > 0.08 {
		t.Fatalf("DKW bound violated in %.1f%% of repetitions", 100*frac)
	}
}
