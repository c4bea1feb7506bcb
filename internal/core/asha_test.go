package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func newTestASHA(eta int, r, R float64, s int) *ASHA {
	return NewASHA(ASHAConfig{
		Space:         smallSpace(),
		RNG:           xrand.New(1),
		Eta:           eta,
		MinResource:   r,
		MaxResource:   R,
		EarlyStopRate: s,
	})
}

// TestASHAGrowsBottomRungFirst: with no completed results there is
// nothing to promote, so every early job targets rung 0 at resource
// r*eta^s.
func TestASHAGrowsBottomRungFirst(t *testing.T) {
	a := newTestASHA(3, 1, 9, 0)
	for i := 0; i < 5; i++ {
		job, ok := a.Next()
		if !ok || job.Rung != 0 || job.TargetResource != 1 {
			t.Fatalf("job %d: %+v", i, job)
		}
	}
}

func TestASHAEarlyStopRateShiftsBaseResource(t *testing.T) {
	a := newTestASHA(3, 1, 9, 1)
	job, _ := a.Next()
	if job.TargetResource != 3 {
		t.Fatalf("s=1 base resource = %v, want 3", job.TargetResource)
	}
}

// TestASHAPromotionRule walks the Figure 2 single-worker scenario:
// after eta configurations finish rung 0, the best is promoted.
func TestASHAPromotionRule(t *testing.T) {
	a := newTestASHA(3, 1, 9, 0)
	losses := []float64{0.9, 0.5, 0.7}
	ids := make([]int, 3)
	for i := 0; i < 3; i++ {
		job, _ := a.Next()
		ids[i] = job.TrialID
		a.Report(Result{TrialID: job.TrialID, Rung: 0, Config: job.Config, Loss: losses[i], Resource: 1})
	}
	// |rung 0| = 3, top 1/3 = config with loss 0.5.
	job, ok := a.Next()
	if !ok || job.Rung != 1 || job.TrialID != ids[1] || job.TargetResource != 3 {
		t.Fatalf("promotion job = %+v, want trial %d at rung 1, resource 3", job, ids[1])
	}
	// The same configuration is not promoted twice.
	job2, _ := a.Next()
	if job2.Rung != 0 {
		t.Fatalf("second job should grow rung 0, got %+v", job2)
	}
}

// TestASHAFigure2Trace replays the promotion pattern of Figure 2
// (right): 9 configurations with known rung-0 ranks; configurations 1, 6
// and 8 reach rung 1 and configuration 8 reaches rung 2.
func TestASHAFigure2Trace(t *testing.T) {
	a := newTestASHA(3, 1, 9, 0)
	// Rung-0 losses indexed by arrival: configuration k has loss l[k].
	// Configurations 1, 6, 8 (0-indexed: 0, 5, 7) are the top three;
	// configuration 8 (index 7) is the best overall.
	loss := []float64{0.30, 0.80, 0.70, 0.75, 0.85, 0.25, 0.90, 0.10, 0.60}
	promotedTo1 := map[int]bool{}
	promotedTo2 := map[int]bool{}
	ids := map[int]int{} // trialID -> arrival index

	// Single worker: interleave Next/Report exactly as ASHA would run.
	arrival := 0
	for step := 0; step < 13; step++ {
		job, ok := a.Next()
		if !ok {
			t.Fatal("ASHA stalled")
		}
		switch job.Rung {
		case 0:
			ids[job.TrialID] = arrival
			a.Report(Result{TrialID: job.TrialID, Rung: 0, Config: job.Config, Loss: loss[arrival], Resource: 1})
			arrival++
		case 1:
			promotedTo1[ids[job.TrialID]] = true
			a.Report(Result{TrialID: job.TrialID, Rung: 1, Config: job.Config, Loss: loss[ids[job.TrialID]], Resource: 3})
		case 2:
			promotedTo2[ids[job.TrialID]] = true
			a.Report(Result{TrialID: job.TrialID, Rung: 2, Config: job.Config, Loss: loss[ids[job.TrialID]], Resource: 9})
		}
	}
	for _, idx := range []int{0, 5, 7} {
		if !promotedTo1[idx] {
			t.Fatalf("configuration %d (loss %v) was not promoted to rung 1; got %v", idx+1, loss[idx], promotedTo1)
		}
	}
	if !promotedTo2[7] {
		t.Fatalf("configuration 8 should reach rung 2; rung-2 promotions: %v", promotedTo2)
	}
}

// TestASHANeverPromotesBeyondTopRung: configurations trained to R stay
// there in the finite horizon.
func TestASHANeverPromotesBeyondTopRung(t *testing.T) {
	a := newTestASHA(2, 1, 4, 0) // rungs 0,1,2 (resources 1,2,4)
	// Flood rung 2 with results and verify no rung-3 job appears.
	for i := 0; i < 50; i++ {
		job, _ := a.Next()
		if job.Rung > 2 {
			t.Fatalf("promoted beyond top rung: %+v", job)
		}
		if job.TargetResource > 4 {
			t.Fatalf("job resource exceeds R: %+v", job)
		}
		a.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: xrand.New(uint64(i)).Float64(), Resource: job.TargetResource})
	}
}

// TestASHAInfiniteHorizonKeepsPromoting: without the R cap, rungs keep
// growing.
func TestASHAInfiniteHorizonKeepsPromoting(t *testing.T) {
	a := NewASHA(ASHAConfig{
		Space:           smallSpace(),
		RNG:             xrand.New(3),
		Eta:             2,
		MinResource:     1,
		MaxResource:     4, // ignored
		InfiniteHorizon: true,
	})
	maxRung := 0
	for i := 0; i < 400; i++ {
		job, _ := a.Next()
		if job.Rung > maxRung {
			maxRung = job.Rung
		}
		a.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: xrand.New(uint64(i)).Float64(), Resource: job.TargetResource})
	}
	if maxRung <= 2 {
		t.Fatalf("infinite horizon never grew past rung %d", maxRung)
	}
}

// TestASHARungGeometryProperty: under random losses, each rung holds
// about 1/eta of the configurations of the rung below it (Figure 2).
// The cumulative promotion count out of a rung can exceed floor(n/eta)
// slightly, because the top-1/eta set churns as new results arrive —
// these are exactly the "incorrect promotions" Section 3.3 analyzes —
// so we check the cumulative count stays within the expected churn
// envelope (~(n/eta)(1+ln eta) for random losses), and that rung sizes
// never increase with rung index.
func TestASHARungGeometryProperty(t *testing.T) {
	f := func(seed uint16, etaRaw uint8) bool {
		eta := int(etaRaw%3) + 2 // 2..4
		a := NewASHA(ASHAConfig{
			Space:         smallSpace(),
			RNG:           xrand.New(uint64(seed)),
			Eta:           eta,
			MinResource:   1,
			MaxResource:   64,
			EarlyStopRate: 0,
		})
		rng := xrand.New(uint64(seed) + 1)
		promoted := map[int]int{} // rung -> promotions out of it
		recorded := map[int]int{} // rung -> completions
		for i := 0; i < 200; i++ {
			job, ok := a.Next()
			if !ok {
				return false
			}
			if job.Rung > 0 {
				promoted[job.Rung-1]++
				// A promotion requires a recorded result below it.
				if promoted[job.Rung-1] > recorded[job.Rung-1] {
					return false
				}
			}
			recorded[job.Rung]++
			a.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: rng.Float64(), Resource: job.TargetResource})
		}
		for rung, p := range promoted {
			// Under i.i.d. random losses the number of configurations
			// that ever enter the top-1/eta of a rung of size n is about
			// (n/eta)(1 + ln eta); allow generous slack on top.
			n := recorded[rung]
			bound := int(2.5*float64(n)/float64(eta)) + 2*int(math.Log2(float64(n+1))) + 4
			if p > bound {
				return false
			}
		}
		sizes := a.RungSizes()
		for k := 1; k < len(sizes); k++ {
			if sizes[k] > sizes[k-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestASHAPromotesTopFractionOnly: a promoted configuration must rank in
// the top 1/eta of its rung at promotion time.
func TestASHAPromotesTopFractionOnly(t *testing.T) {
	a := newTestASHA(4, 1, 256, 0)
	rng := xrand.New(9)
	rungLoss := map[int]map[int]float64{} // rung -> trial -> loss
	for i := 0; i < 500; i++ {
		job, _ := a.Next()
		if job.Rung > 0 {
			// The promoted trial must be in the top 1/eta of the rung
			// it came from, among results recorded so far.
			prev := rungLoss[job.Rung-1]
			mine, seen := prev[job.TrialID]
			if !seen {
				t.Fatalf("promotion of trial %d with no rung-%d result", job.TrialID, job.Rung-1)
			}
			better := 0
			for _, l := range prev {
				if l < mine {
					better++
				}
			}
			if better >= (len(prev)+3)/4+1 {
				t.Fatalf("promoted trial ranked %d of %d in rung %d", better+1, len(prev), job.Rung-1)
			}
		}
		l := rng.Float64()
		if rungLoss[job.Rung] == nil {
			rungLoss[job.Rung] = map[int]float64{}
		}
		rungLoss[job.Rung][job.TrialID] = l
		a.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: l, Resource: job.TargetResource})
	}
	// Structural check: rung sizes decay geometrically-ish.
	sizes := a.RungSizes()
	for k := 1; k < len(sizes); k++ {
		if sizes[k] > sizes[k-1] {
			t.Fatalf("rung %d larger than rung %d: %v", k, k-1, sizes)
		}
	}
}

func TestASHAFailedJobRetried(t *testing.T) {
	a := newTestASHA(3, 1, 9, 0)
	job, _ := a.Next()
	a.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Failed: true})
	retry, ok := a.Next()
	if !ok || retry.TrialID != job.TrialID || retry.Rung != job.Rung {
		t.Fatalf("expected retry of %+v, got %+v", job, retry)
	}
}

func TestASHAUsesIntermediateLossesForIncumbent(t *testing.T) {
	a := newTestASHA(3, 1, 9, 0)
	job, _ := a.Next()
	a.Report(Result{TrialID: job.TrialID, Rung: 0, Config: job.Config, Loss: 0.4, TrueLoss: 0.41, Resource: 1})
	b, ok := a.Best()
	if !ok || b.Loss != 0.4 {
		t.Fatal("ASHA should report an incumbent from rung-0 results")
	}
}

func TestASHADuplicateReportIgnored(t *testing.T) {
	a := newTestASHA(3, 1, 9, 0)
	job, _ := a.Next()
	res := Result{TrialID: job.TrialID, Rung: 0, Config: job.Config, Loss: 0.4, Resource: 1}
	a.Report(res)
	a.Report(res)
	if sizes := a.RungSizes(); sizes[0] != 1 {
		t.Fatalf("duplicate report double-counted: %v", sizes)
	}
}

// TestASHANaNLossRanksLast: a diverged trial's NaN loss ranks after
// every finite one, so it is never promoted ahead of them.
func TestASHANaNLossRanksLast(t *testing.T) {
	a := newTestASHA(4, 1, 256, 0)
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i], _ = a.Next()
	}
	for i, job := range jobs {
		loss := float64(i) / 10
		if i == 0 {
			loss = math.NaN()
		}
		a.Report(Result{TrialID: job.TrialID, Rung: 0, Config: job.Config, Loss: loss, Resource: 1})
	}
	// ⌊8/4⌋ = 2: the 0.1 and 0.2 trials.
	for _, want := range []int{1, 2} {
		if job, _ := a.Next(); job.Rung != 1 || job.TrialID != want {
			t.Fatalf("promoted trial %d to rung %d, want trial %d to rung 1", job.TrialID, job.Rung, want)
		}
	}
}

func TestASHAConfigValidation(t *testing.T) {
	bad := []ASHAConfig{
		{RNG: xrand.New(1), Eta: 2, MinResource: 1, MaxResource: 4},                      // no space
		{Space: smallSpace(), Eta: 2, MinResource: 1, MaxResource: 4},                    // no rng
		{Space: smallSpace(), RNG: xrand.New(1), Eta: 1, MinResource: 1, MaxResource: 4}, // eta < 2
		{Space: smallSpace(), RNG: xrand.New(1), Eta: 2, MinResource: 0, MaxResource: 4},
		{Space: smallSpace(), RNG: xrand.New(1), Eta: 2, MinResource: 8, MaxResource: 4},
		{Space: smallSpace(), RNG: xrand.New(1), Eta: 2, MinResource: 1, MaxResource: 4, EarlyStopRate: -1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			NewASHA(cfg)
		}()
	}
}

// TestASHASpeedupClaim verifies the Section 3.2 arithmetic on the toy
// bracket (n=9, r=1, R=9, eta=3): with 9 machines and training time
// linear in the resource, ASHA returns a fully-trained configuration by
// 13/9 * time(R), and in general within 2 * time(R).
func TestASHASpeedupClaim(t *testing.T) {
	layout := BracketLayout(9, 1, 9, 3, 0)
	total := 0.0
	critical := 0.0
	for _, rung := range layout {
		total += float64(rung.N) * rung.Resource
		// With eta^(log_eta R - s) = 9 machines, each rung's n_i jobs of
		// resource r_i run fully in parallel, so the critical path is
		// sum_i r_i = 1 + 3 + 9 = 13 = 13/9 * time(R).
		critical += rung.Resource
	}
	if total != 27 {
		t.Fatalf("bracket total = %v, want 27", total)
	}
	if critical != 13 {
		t.Fatalf("critical path = %v, want 13 (= 13/9 * time(R))", critical)
	}
	if critical > 2*9 {
		t.Fatal("Section 3.2 claims ASHA returns a trained configuration within 2*time(R)")
	}
}
