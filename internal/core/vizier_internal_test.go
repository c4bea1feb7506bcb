package core

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestVizierSubsampleKeepsBestAndRecent(t *testing.T) {
	v := NewVizier(VizierConfig{
		Space:           smallSpace(),
		RNG:             xrand.New(1),
		MaxResource:     1,
		MaxObservations: 9, // keepBest = 3
	})
	// 20 observations with losses 19..0 (so the last is the best and
	// also the most recent).
	for i := 0; i < 20; i++ {
		job, _ := v.Next()
		v.Report(Result{TrialID: job.TrialID, Config: job.Config, Loss: float64(19 - i), Resource: 1})
	}
	idx := v.subsampleIdx()
	if len(idx) != 9 {
		t.Fatalf("subsample size %d, want 9", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if seen[i] {
			t.Fatalf("duplicate index %d in subsample", i)
		}
		seen[i] = true
	}
	// The three best observations (losses 0, 1, 2 = indices 19, 18, 17)
	// must be kept.
	for _, want := range []int{19, 18, 17} {
		if !seen[want] {
			t.Fatalf("best observation %d dropped by subsample", want)
		}
	}
}

func TestVizierSubsampleNoOpWhenSmall(t *testing.T) {
	v := NewVizier(VizierConfig{Space: smallSpace(), RNG: xrand.New(2), MaxResource: 1, MaxObservations: 100})
	for i := 0; i < 5; i++ {
		job, _ := v.Next()
		v.Report(Result{TrialID: job.TrialID, Config: job.Config, Loss: float64(i), Resource: 1})
	}
	if got := len(v.subsampleIdx()); got != 5 {
		t.Fatalf("small set should be kept whole, got %d", got)
	}
}

func TestMedianOddEven(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 3 {
		// Upper median by construction (len/2 index).
		t.Fatalf("median even = %v", m)
	}
}

func TestFabolasFidelityEncodingMonotone(t *testing.T) {
	f := NewFabolas(FabolasConfig{Space: smallSpace(), RNG: xrand.New(3), MaxResource: 64})
	cfg := smallSpace().Sample(xrand.New(4))
	prev := -1.0
	for _, fid := range []float64{1.0 / 64, 1.0 / 16, 1.0 / 4, 1} {
		x := f.encode(cfg, fid)
		s := x[len(x)-1]
		if s <= prev {
			t.Fatalf("fidelity coordinate not increasing: %v after %v", s, prev)
		}
		prev = s
	}
	if math.Abs(prev-1) > 1e-9 {
		t.Fatalf("full fidelity should encode to 1, got %v", prev)
	}
	lo := f.encode(cfg, 1.0/64)
	if math.Abs(lo[len(lo)-1]) > 1e-9 {
		t.Fatalf("minimum fidelity should encode to 0, got %v", lo[len(lo)-1])
	}
}

func TestMaternCorrDecreases(t *testing.T) {
	if maternCorr(0, 0.3) != 1 {
		t.Fatal("zero-distance correlation must be 1")
	}
	prev := 1.0
	for d := 0.1; d <= 1.0; d += 0.1 {
		c := maternCorr(d, 0.3)
		if c >= prev || c < 0 {
			t.Fatalf("correlation not decreasing at distance %v: %v", d, c)
		}
		prev = c
	}
}

func TestEntryHeapOrdering(t *testing.T) {
	min := entryHeap{max: false}
	max := entryHeap{max: true}
	vals := []float64{0.5, 0.2, 0.9, 0.2, 0.7}
	for i, v := range vals {
		min.Push(entry{trialID: i, loss: v})
		max.Push(entry{trialID: i, loss: v})
	}
	prev := math.Inf(-1)
	for min.Len() > 0 {
		e, _ := min.Pop()
		if e.loss < prev {
			t.Fatal("min-heap pops out of order")
		}
		prev = e.loss
	}
	prev = math.Inf(1)
	for max.Len() > 0 {
		e, _ := max.Pop()
		if e.loss > prev {
			t.Fatal("max-heap pops out of order")
		}
		prev = e.loss
	}
	if _, ok := min.Pop(); ok {
		t.Fatal("empty heap popped a value")
	}
}
