package core

import (
	"testing"

	"repro/internal/xrand"
)

func newTestHyperband(mode IncumbentMode) *Hyperband {
	return NewHyperband(HyperbandConfig{
		Space:         smallSpace(),
		RNG:           xrand.New(1),
		Eta:           2,
		MinResource:   1,
		MaxResource:   8,
		MaxBracket:    -1,
		IncumbentMode: mode,
	})
}

// runHyperbandJobs drives n jobs to completion with the given loss
// function, single-worker style.
func runHyperbandJobs(t *testing.T, h *Hyperband, n int, loss func(job Job) float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		job, ok := h.Next()
		if !ok {
			t.Fatalf("Hyperband stalled at job %d", i)
		}
		h.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: loss(job), Resource: job.TargetResource})
	}
}

// TestHyperbandLoopsBrackets: brackets progress s=0,1,...,smax and wrap
// back to 0 (the Appendix A.3 looping order).
func TestHyperbandLoopsBrackets(t *testing.T) {
	h := newTestHyperband(ByRung)
	rng := xrand.New(2)
	seen := []int{h.bracket}
	for i := 0; i < 500; i++ {
		job, ok := h.Next()
		if !ok {
			t.Fatal("sequential Hyperband should never stall with one worker")
		}
		h.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: rng.Float64(), Resource: job.TargetResource})
		if b := h.bracket; b != seen[len(seen)-1] {
			seen = append(seen, b)
		}
	}
	// smax = 3 for R/r = 8, eta 2: expect 0,1,2,3,0,...
	if len(seen) < 5 {
		t.Fatalf("brackets did not loop: %v", seen)
	}
	for i := 1; i < len(seen); i++ {
		want := (seen[i-1] + 1) % 4
		if seen[i] != want {
			t.Fatalf("bracket order %v: step %d should be %d", seen, i, want)
		}
	}
}

// TestHyperbandBracketSizing: each bracket's first rung matches the
// equal-budget sizing rule.
func TestHyperbandBracketSizing(t *testing.T) {
	h := newTestHyperband(ByRung)
	rng := xrand.New(3)
	counts := map[int]int{}
	bracket := 0
	for i := 0; i < 300; i++ {
		job, ok := h.Next()
		if !ok {
			t.Fatal("stall")
		}
		if h.bracket != bracket {
			bracket = h.bracket
			if bracket == 0 {
				break // wrapped around; one full loop measured
			}
		}
		if job.Rung == 0 {
			counts[bracket]++
		}
		h.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: rng.Float64(), Resource: job.TargetResource})
	}
	for s := 0; s <= 3; s++ {
		want := HyperbandBracketSize(1, 8, 2, s)
		if counts[s] != want {
			t.Fatalf("bracket %d rung-0 jobs = %d, want %d (counts=%v)", s, counts[s], want, counts)
		}
	}
}

func TestHyperbandTrialIDsUniqueAcrossBrackets(t *testing.T) {
	h := newTestHyperband(ByRung)
	rng := xrand.New(4)
	type key struct{ id, rung int }
	seen := map[key]bool{}
	for i := 0; i < 400; i++ {
		job, _ := h.Next()
		k := key{job.TrialID, job.Rung}
		if seen[k] {
			t.Fatalf("trial %d re-ran rung %d", job.TrialID, job.Rung)
		}
		seen[k] = true
		h.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: rng.Float64(), Resource: job.TargetResource})
	}
}

func TestHyperbandByBracketIncumbentDelayed(t *testing.T) {
	h := newTestHyperband(ByBracket)
	rng := xrand.New(5)
	sawIncumbentBeforeBracketEnd := false
	// First bracket with R/r=8, eta=2, s=0: n=8 -> rungs 8+4+2+1 = 15 jobs.
	for i := 0; i < 14; i++ {
		job, _ := h.Next()
		h.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: rng.Float64(), Resource: job.TargetResource})
		if _, ok := h.Best(); ok && i < 13 {
			sawIncumbentBeforeBracketEnd = true
		}
	}
	if sawIncumbentBeforeBracketEnd {
		t.Fatal("by-bracket incumbent appeared before the bracket finished")
	}
	job, _ := h.Next()
	h.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: rng.Float64(), Resource: job.TargetResource})
	if _, ok := h.Best(); !ok {
		t.Fatal("no incumbent after the first bracket completed")
	}
}

func TestAsyncHyperbandCyclesBrackets(t *testing.T) {
	ah := NewAsyncHyperband(AsyncHyperbandConfig{
		Space:       smallSpace(),
		RNG:         xrand.New(6),
		Eta:         2,
		MinResource: 1,
		MaxResource: 8,
		MaxBracket:  3,
	})
	if len(ah.brackets) != 4 {
		t.Fatalf("expected 4 brackets, got %d", len(ah.brackets))
	}
	rng := xrand.New(7)
	baseResources := map[float64]bool{}
	for i := 0; i < 600; i++ {
		job, ok := ah.Next()
		if !ok {
			t.Fatal("async Hyperband stalled")
		}
		if job.Rung == 0 {
			baseResources[job.TargetResource] = true
		}
		ah.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: rng.Float64(), Resource: job.TargetResource})
	}
	// Rung-0 jobs from brackets s=0..3 have base resources 1, 2, 4, 8.
	for _, r := range []float64{1, 2, 4, 8} {
		if !baseResources[r] {
			t.Fatalf("bracket with base resource %v never ran; saw %v", r, baseResources)
		}
	}
	if _, ok := ah.Best(); !ok {
		t.Fatal("async Hyperband has no incumbent")
	}
	if ah.Done() {
		t.Fatal("async Hyperband is never done")
	}
}

func TestAsyncHyperbandRoutesResultsToOwningBracket(t *testing.T) {
	ah := NewAsyncHyperband(AsyncHyperbandConfig{
		Space:       smallSpace(),
		RNG:         xrand.New(8),
		Eta:         2,
		MinResource: 1,
		MaxResource: 4,
		MaxBracket:  1,
	})
	rng := xrand.New(9)
	// Interleave many jobs; if routing were wrong, a bracket would see
	// foreign trial IDs and promotions would reference unknown configs
	// (nil Config panics in the simulator; here we just check progress).
	promotions := 0
	for i := 0; i < 300; i++ {
		job, _ := ah.Next()
		if job.Rung > 0 {
			promotions++
			if job.Config.IsZero() {
				t.Fatal("promotion lost its configuration: result routed to wrong bracket")
			}
		}
		ah.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: rng.Float64(), Resource: job.TargetResource})
	}
	if promotions == 0 {
		t.Fatal("async Hyperband never promoted anything")
	}
}
