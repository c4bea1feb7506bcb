// Package stats provides the small statistical toolkit used by the
// schedulers, the simulator, and the experiment harness: summary
// statistics, quantiles, empirical CDFs and the Dvoretzky-Kiefer-Wolfowitz
// bound referenced in Section 3.3 of the paper.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs. It returns 0 for
// fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or +Inf if xs is empty.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf if xs is empty.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for input already in ascending order; sorted
// must be non-empty.
func QuantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the five-number summary plus mean used by the experiment
// harness when aggregating across trials.
type Summary struct {
	N                  int
	Mean, SD           float64
	Min, Q25, Med, Q75 float64
	Max                float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, SD: nan, Min: nan, Q25: nan, Med: nan, Q75: nan, Max: nan}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		SD:   StdDev(xs),
		Min:  sorted[0],
		Q25:  QuantileSorted(sorted, 0.25),
		Med:  QuantileSorted(sorted, 0.5),
		Q75:  QuantileSorted(sorted, 0.75),
		Max:  sorted[len(sorted)-1],
	}
}

// ECDF is an empirical cumulative distribution function over a fixed
// sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// At returns the fraction of samples <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	idx := sort.SearchFloat64s(e.sorted, x)
	// SearchFloat64s returns the first index >= x; advance over ties so
	// the ECDF counts samples <= x.
	for idx < len(e.sorted) && e.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(e.sorted))
}

// Len returns the number of samples in the ECDF.
func (e *ECDF) Len() int { return len(e.sorted) }

// DKWBound returns the Dvoretzky-Kiefer-Wolfowitz upper bound on
// sup_x |F_n(x) - F(x)| that holds with probability at least 1-delta for
// an ECDF built from n i.i.d. samples:
//
//	eps = sqrt(ln(2/delta) / (2n)).
//
// Section 3.3 of the paper uses this to argue that ASHA mispromotes only
// about sqrt(n) configurations in a rung of size n.
func DKWBound(n int, delta float64) float64 {
	if n <= 0 || delta <= 0 || delta >= 1 {
		return math.NaN()
	}
	return math.Sqrt(math.Log(2/delta) / (2 * float64(n)))
}

// ArgMin returns the index of the smallest element of xs, or -1 if empty.
func ArgMin(xs []float64) int {
	best := -1
	bv := math.Inf(1)
	for i, x := range xs {
		if x < bv {
			bv = x
			best = i
		}
	}
	return best
}

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
