package curve

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// newTrainer is a trainer at resource 0 on p's curve.
func newTrainer(p Params, rng *xrand.RNG) *Trainer {
	t := new(Trainer)
	t.Init(p, rng)
	return t
}

func testParams() Params {
	return Params{Initial: 1.0, Asymptote: 0.2, Rate: 0.05, NoiseSD: 0, CostPerUnit: 1}
}

func TestLossDecaysMonotonically(t *testing.T) {
	tr := newTrainer(testParams(), xrand.New(1))
	prev := tr.TrueLoss()
	for i := 0; i < 50; i++ {
		tr.Train(1)
		if tr.TrueLoss() > prev {
			t.Fatalf("noiseless loss increased at step %d", i)
		}
		prev = tr.TrueLoss()
	}
}

func TestConvergesToAsymptote(t *testing.T) {
	p := testParams()
	tr := newTrainer(p, xrand.New(1))
	tr.Train(1000)
	if math.Abs(tr.TrueLoss()-p.Asymptote) > 1e-6 {
		t.Fatalf("loss %v did not converge to asymptote %v", tr.TrueLoss(), p.Asymptote)
	}
}

func TestTrainingIsPathIndependentProperty(t *testing.T) {
	// Training in one step of r or many small steps summing to r must
	// land on the same underlying loss: the checkpoint/resume identity
	// ASHA relies on ("incrementally trained configurations can be
	// checkpointed and resumed").
	f := func(splitsRaw uint8) bool {
		p := testParams()
		total := 20.0
		one := newTrainer(p, xrand.New(1))
		one.Train(total)

		splits := int(splitsRaw%7) + 2
		many := newTrainer(p, xrand.New(2))
		for i := 0; i < splits; i++ {
			many.Train(total / float64(splits))
		}
		return math.Abs(one.TrueLoss()-many.TrueLoss()) < 1e-9 &&
			math.Abs(one.Resource()-many.Resource()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRestoreExact(t *testing.T) {
	tr := newTrainer(testParams(), xrand.New(3))
	tr.Train(5)
	cp := tr.Checkpoint()
	lossAt5 := tr.TrueLoss()
	tr.Train(10)
	tr.Restore(cp)
	if tr.TrueLoss() != lossAt5 || tr.Resource() != 5 {
		t.Fatal("restore did not rewind exactly")
	}
	// Resuming after restore matches an uninterrupted run.
	tr.Train(10)
	ref := newTrainer(testParams(), xrand.New(4))
	ref.Train(15)
	if math.Abs(tr.TrueLoss()-ref.TrueLoss()) > 1e-12 {
		t.Fatal("resume after restore diverged from uninterrupted run")
	}
}

func TestInheritCopiesState(t *testing.T) {
	a := newTrainer(testParams(), xrand.New(5))
	a.Train(12)
	b := newTrainer(testParams(), xrand.New(6))
	b.InheritFrom(a)
	if b.TrueLoss() != a.TrueLoss() || b.Resource() != a.Resource() {
		t.Fatal("inherit did not copy state")
	}
	// The donor is unaffected by the heir's subsequent training.
	before := a.TrueLoss()
	b.Train(10)
	if a.TrueLoss() != before {
		t.Fatal("inherit aliased state")
	}
}

func TestSetParamsKeepsState(t *testing.T) {
	tr := newTrainer(testParams(), xrand.New(7))
	tr.Train(10)
	loss := tr.TrueLoss()
	p2 := testParams()
	p2.Asymptote = 0.1
	tr.SetParams(p2)
	if tr.TrueLoss() != loss {
		t.Fatal("SetParams changed the current loss")
	}
	tr.Train(1000)
	if math.Abs(tr.TrueLoss()-0.1) > 1e-6 {
		t.Fatal("trainer did not head for the new asymptote")
	}
}

func TestObservationNoiseAveragesOut(t *testing.T) {
	p := testParams()
	p.NoiseSD = 0.05
	tr := newTrainer(p, xrand.New(8))
	tr.Train(1000)
	n := 5000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += tr.Observe()
	}
	if mean := sum / float64(n); math.Abs(mean-tr.TrueLoss()) > 0.005 {
		t.Fatalf("noisy observations biased: mean %v vs true %v", mean, tr.TrueLoss())
	}
}

func TestDivergingCurveWorsens(t *testing.T) {
	p := testParams()
	p.Diverges = true
	p.DivergeLevel = 100
	tr := newTrainer(p, xrand.New(9))
	prev := tr.TrueLoss()
	for i := 0; i < 20; i++ {
		tr.Train(1)
		if tr.TrueLoss() < prev {
			t.Fatal("diverging curve improved")
		}
		prev = tr.TrueLoss()
	}
	tr.Train(10000)
	if math.Abs(tr.TrueLoss()-100) > 1e-3 {
		t.Fatalf("diverging curve did not reach its level: %v", tr.TrueLoss())
	}
}

func TestExpectedLossAtMatchesTraining(t *testing.T) {
	p := testParams()
	tr := newTrainer(p, xrand.New(10))
	tr.Train(7.5)
	if math.Abs(tr.TrueLoss()-p.ExpectedLossAt(7.5)) > 1e-12 {
		t.Fatal("ExpectedLossAt disagrees with actual training")
	}
}

func TestNegativeTrainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative increment")
		}
	}()
	newTrainer(testParams(), xrand.New(11)).Train(-1)
}

func TestSurfaceDeterministicAndBounded(t *testing.T) {
	s1 := NewSurface(xrand.New(42), 5)
	s2 := NewSurface(xrand.New(42), 5)
	rng := xrand.New(43)
	for i := 0; i < 500; i++ {
		x := make([]float64, 5)
		for d := range x {
			x[d] = rng.Float64()
		}
		q1, q2 := s1.Quality(x), s2.Quality(x)
		if q1 != q2 {
			t.Fatal("same-seed surfaces disagree")
		}
		if q1 < 0 || q1 > 1 {
			t.Fatalf("quality out of [0,1]: %v", q1)
		}
	}
}

func TestSurfaceHasSpread(t *testing.T) {
	// A useful response surface must separate configurations; check the
	// sampled quality range is non-trivial.
	s := NewSurface(xrand.New(44), 8)
	rng := xrand.New(45)
	lo, hi := 1.0, 0.0
	for i := 0; i < 2000; i++ {
		x := make([]float64, 8)
		for d := range x {
			x[d] = rng.Float64()
		}
		q := s.Quality(x)
		if q < lo {
			lo = q
		}
		if q > hi {
			hi = q
		}
	}
	if hi-lo < 0.3 {
		t.Fatalf("surface too flat: range [%v, %v]", lo, hi)
	}
}

func TestSurfaceIsSmoothish(t *testing.T) {
	// Nearby points should have nearby quality (no huge jumps), a
	// property real tuning surfaces share and the schedulers implicitly
	// rely on for rank stability.
	s := NewSurface(xrand.New(46), 4)
	rng := xrand.New(47)
	for i := 0; i < 500; i++ {
		x := make([]float64, 4)
		for d := range x {
			x[d] = rng.Uniform(0.05, 0.95)
		}
		y := make([]float64, 4)
		copy(y, x)
		y[rng.IntN(4)] += 0.01
		if diff := math.Abs(s.Quality(x) - s.Quality(y)); diff > 0.2 {
			t.Fatalf("surface jump of %v for a 0.01 move", diff)
		}
	}
}
