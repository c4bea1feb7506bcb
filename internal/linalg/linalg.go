// Package linalg implements the small amount of dense linear algebra the
// Gaussian-process code needs: symmetric matrices, Cholesky factorization
// and triangular solves. It is deliberately minimal — stdlib only, no
// BLAS — because GP training sets in this repository stay in the low
// hundreds of points.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero r-by-c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive-definite matrix A. Only the lower triangle of A is
// read. The returned matrix has zeros above the diagonal.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, j, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveLower solves L y = b for lower-triangular L by forward
// substitution.
func SolveLower(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("linalg: SolveLower dimension mismatch")
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	return y
}

// SolveUpperT solves Lᵀ x = y for lower-triangular L (i.e. an
// upper-triangular system) by backward substitution.
func SolveUpperT(l *Matrix, y []float64) []float64 {
	n := l.Rows
	if len(y) != n {
		panic("linalg: SolveUpperT dimension mismatch")
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// CholeskySolve solves A x = b given the Cholesky factor L of A.
func CholeskySolve(l *Matrix, b []float64) []float64 {
	return SolveUpperT(l, SolveLower(l, b))
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot dimension mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
