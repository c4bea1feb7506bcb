// Package bayesopt implements the model-based sampling machinery needed
// by the paper's comparators: Gaussian-process regression with a
// Matérn-5/2 kernel and expected-improvement acquisition (Vizier-like and
// Fabolas-like optimizers), and a TPE-style kernel-density sampler
// (BOHB). Everything operates on configurations encoded into the unit
// cube by internal/searchspace.
package bayesopt

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// GP is a Gaussian-process regressor with a Matérn-5/2 kernel, a shared
// length scale, and i.i.d. observation noise. Targets are standardized
// internally so kernel amplitudes stay O(1).
type GP struct {
	// LengthScale is the kernel length scale in encoded units.
	LengthScale float64
	// Noise is the observation noise standard deviation in standardized
	// target units.
	Noise float64

	x     [][]float64
	chol  *linalg.Matrix
	alpha []float64
	meanY float64
	stdY  float64
}

// NewGP constructs a GP with the given kernel hyperparameters.
func NewGP(lengthScale, noise float64) *GP {
	if lengthScale <= 0 {
		lengthScale = 0.3
	}
	if noise <= 0 {
		noise = 0.05
	}
	return &GP{LengthScale: lengthScale, Noise: noise}
}

// matern52 evaluates the Matérn-5/2 kernel for squared distance d2.
func (g *GP) matern52(d2 float64) float64 {
	d := math.Sqrt(d2) / g.LengthScale
	s5 := math.Sqrt(5) * d
	return (1 + s5 + 5*d2/(3*g.LengthScale*g.LengthScale)) * math.Exp(-s5)
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// ErrNoData is returned by Fit when there are no observations.
var ErrNoData = errors.New("bayesopt: no observations to fit")

// Fit trains the GP on the given points and targets. The inputs are
// copied. Fit retries with increasing diagonal jitter if the kernel
// matrix is numerically singular.
func (g *GP) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 {
		return ErrNoData
	}
	if len(x) != len(y) {
		return fmt.Errorf("bayesopt: %d points but %d targets", len(x), len(y))
	}
	n := len(x)
	g.x = make([][]float64, n)
	for i, xi := range x {
		g.x[i] = append([]float64(nil), xi...)
	}
	// Standardize targets.
	g.meanY = stats.Mean(y)
	g.stdY = stats.StdDev(y)
	if g.stdY < 1e-12 {
		g.stdY = 1
	}
	ys := make([]float64, n)
	for i, yi := range y {
		ys[i] = (yi - g.meanY) / g.stdY
	}
	// Kernel matrix with noise.
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := g.matern52(sqDist(g.x[i], g.x[j]))
			if i == j {
				v += g.Noise * g.Noise
			}
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	jitter := 1e-10
	for attempt := 0; attempt < 8; attempt++ {
		kj := k.Clone()
		for i := 0; i < n; i++ {
			kj.Set(i, i, kj.At(i, i)+jitter)
		}
		chol, err := linalg.Cholesky(kj)
		if err == nil {
			g.chol = chol
			g.alpha = linalg.CholeskySolve(chol, ys)
			return nil
		}
		jitter *= 10
	}
	return linalg.ErrNotPositiveDefinite
}

// Predict returns the posterior mean and standard deviation at x, in the
// original target units.
func (g *GP) Predict(x []float64) (mu, sigma float64) {
	if g.chol == nil {
		return g.meanY, g.stdY
	}
	n := len(g.x)
	kstar := make([]float64, n)
	for i := 0; i < n; i++ {
		kstar[i] = g.matern52(sqDist(x, g.x[i]))
	}
	muStd := linalg.Dot(kstar, g.alpha)
	v := linalg.SolveLower(g.chol, kstar)
	varStd := g.matern52(0) - linalg.Dot(v, v)
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return muStd*g.stdY + g.meanY, math.Sqrt(varStd) * g.stdY
}

// normPDF and normCDF are the standard normal density and distribution.
func normPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }

func normCDF(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }

// ExpectedImprovement returns EI for minimization: the expected amount by
// which a Gaussian prediction (mu, sigma) improves on the current best.
func ExpectedImprovement(mu, sigma, best float64) float64 {
	if sigma <= 0 {
		if mu < best {
			return best - mu
		}
		return 0
	}
	z := (best - mu) / sigma
	return (best-mu)*normCDF(z) + sigma*normPDF(z)
}
