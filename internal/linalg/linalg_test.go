package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// randSPD builds a random symmetric positive-definite matrix A = B Bᵀ + nI.
func randSPD(rng *xrand.RNG, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.Normal(0, 1)
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b.At(i, k) * b.At(j, k)
			}
			if i == j {
				s += float64(n)
			}
			a.Set(i, j, s)
		}
	}
	return a
}

func TestCholeskyRoundTripProperty(t *testing.T) {
	rng := xrand.New(1)
	f := func(sz uint8) bool {
		n := int(sz%8) + 1
		a := randSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		// Check L Lᵀ == A.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if math.Abs(s-a.At(i, j)) > 1e-8*(1+math.Abs(a.At(i, j))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestSolveProperty(t *testing.T) {
	rng := xrand.New(2)
	f := func(sz uint8) bool {
		n := int(sz%8) + 1
		a := randSPD(rng, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.Normal(0, 1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = Dot(a.Data[i*n:(i+1)*n], xTrue)
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := CholeskySolve(l, b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangularSolvesInverse(t *testing.T) {
	rng := xrand.New(3)
	n := 5
	a := randSPD(rng, n)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3, 4, 5}
	y := SolveLower(l, b)
	// Check L y = b.
	for i := 0; i < n; i++ {
		s := 0.0
		for k := 0; k <= i; k++ {
			s += l.At(i, k) * y[k]
		}
		if math.Abs(s-b[i]) > 1e-9 {
			t.Fatalf("forward substitution residual %v at %d", s-b[i], i)
		}
	}
	x := SolveUpperT(l, y)
	// Check Lᵀ x = y.
	for i := 0; i < n; i++ {
		s := 0.0
		for k := i; k < n; k++ {
			s += l.At(k, i) * x[k]
		}
		if math.Abs(s-y[i]) > 1e-9 {
			t.Fatalf("backward substitution residual at %d", i)
		}
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMatrix(1, 1)
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone shares storage")
	}
}
