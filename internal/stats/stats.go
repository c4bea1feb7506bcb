// Package stats provides the small statistical toolkit used by the
// schedulers, the simulator, and the experiment harness: Mean,
// Variance and StdDev, QuantileSorted, and DKWBound, the
// Dvoretzky-Kiefer-Wolfowitz bound referenced in Section 3.3 of the
// paper.
package stats

import "math"

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

// QuantileSorted returns the q-th quantile (0 <= q <= 1) of sorted, which
// must be non-empty and in ascending order, interpolating linearly
// between order statistics.
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
