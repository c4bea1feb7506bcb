package workload

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// sampleAsymptotes draws n random configurations and returns their
// asymptotes (excluding diverging ones) plus the diverging fraction.
func sampleAsymptotes(b *Benchmark, n int) (asym []float64, divFrac float64) {
	rng := xrand.New(4242)
	div := 0
	for i := 0; i < n; i++ {
		p := b.ParamsFor(b.Space().Sample(rng))
		if p.Diverges {
			div++
			continue
		}
		asym = append(asym, p.Asymptote)
	}
	return asym, float64(div) / float64(n)
}

func fracBelow(xs []float64, th float64) float64 {
	c := 0
	for _, x := range xs {
		if x <= th {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}

// The bands below encode the paper-facing calibration targets discussed
// in DESIGN.md: the loss ranges visible in each figure and the density of
// good configurations implied by how quickly each searcher finds them.

func TestCudaConvnetCalibration(t *testing.T) {
	asym, _ := sampleAsymptotes(CudaConvnet(), 30000)
	if m := slices.Min(asym); m < 0.17 || m > 0.19 {
		t.Fatalf("best reachable error %v outside Figure 3/4's floor (~0.18)", m)
	}
	// Random search should plateau around 0.25 within ~60 full trainings
	// (Figure 3), so P(error <= 0.25) must be near 1-2%.
	if f := fracBelow(asym, 0.25); f < 0.004 || f > 0.04 {
		t.Fatalf("P(asym <= 0.25) = %v, want about 0.01-0.02", f)
	}
	// Good configurations (error < 0.21, Section 4.2) are sparse.
	if f := fracBelow(asym, 0.21); f < 0.001 || f > 0.012 {
		t.Fatalf("P(asym <= 0.21) = %v, want a few tenths of a percent", f)
	}
}

func TestSmallCNNCIFARCalibration(t *testing.T) {
	b := SmallCNNCIFAR()
	asym, _ := sampleAsymptotes(b, 30000)
	if m := slices.Min(asym); m < 0.185 || m > 0.21 {
		t.Fatalf("best reachable error %v outside Figure 4's floor (~0.20)", m)
	}
	// Section 4.2: test error below 0.23 takes ~700 sequential minutes,
	// i.e. good configs are rare.
	if f := fracBelow(asym, 0.23); f < 0.001 || f > 0.012 {
		t.Fatalf("P(asym <= 0.23) = %v, want a few tenths of a percent", f)
	}
}

func TestSmallCNNTimeVariance(t *testing.T) {
	// Section 4.2: "the average time required to train a configuration
	// on the maximum resource R is 30 minutes with a standard deviation
	// of 27 minutes".
	b := SmallCNNCIFAR()
	rng := xrand.New(11)
	times := make([]float64, 4000)
	for i := range times {
		p := b.ParamsFor(b.Space().Sample(rng))
		times[i] = p.CostPerUnit * b.MaxResource()
	}
	mean := stats.Mean(times)
	sd := stats.StdDev(times)
	if mean < 25 || mean > 35 {
		t.Fatalf("mean time(R) = %v, want about 30", mean)
	}
	if ratio := sd / mean; ratio < 0.6 || ratio > 1.4 {
		t.Fatalf("time(R) cv = %v, want about 0.9", ratio)
	}
}

func TestCudaConvnetTimeIsUniform(t *testing.T) {
	// Benchmark 1 has a fixed architecture: training time is constant
	// across configurations (the paper attributes benchmark 2's sync-SHA
	// collapse to its higher time variance, so benchmark 1 must not
	// have one).
	b := CudaConvnet()
	rng := xrand.New(12)
	first := b.ParamsFor(b.Space().Sample(rng)).CostPerUnit
	for i := 0; i < 100; i++ {
		if c := b.ParamsFor(b.Space().Sample(rng)).CostPerUnit; c != first {
			t.Fatalf("benchmark 1 cost varies: %v vs %v", c, first)
		}
	}
	if got := first * b.MaxResource(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("time(R) = %v, want 40 minutes", got)
	}
}

func TestPTBCalibration(t *testing.T) {
	b := PTBLSTM()
	asym, divFrac := sampleAsymptotes(b, 30000)
	// Section 4.3: some configurations produce perplexities orders of
	// magnitude above average; they should be a noticeable minority.
	if divFrac < 0.02 || divFrac > 0.2 {
		t.Fatalf("diverging fraction %v, want a few percent", divFrac)
	}
	// Figure 5's y-range: best models reach perplexity ~76.6.
	if m := slices.Min(asym); m < 75.8 || m > 78 {
		t.Fatalf("best perplexity %v, want ~76-77", m)
	}
	// Perplexity below 80 is the Figure 5 milestone ASHA reaches ~3x
	// faster than Vizier. Calibration: Vizier (500 full trainings per
	// time(R)) should need ~3 time(R) to find one, so
	// P(ppl <= 80) ~ 1/1500.
	if f := fracBelow(asym, 80); f < 2e-4 || f > 2e-3 {
		t.Fatalf("P(ppl <= 80) = %v, want about 7e-4", f)
	}
}

func TestDropConnectCalibration(t *testing.T) {
	b := DropConnectLSTM()
	asym, _ := sampleAsymptotes(b, 30000)
	if m := slices.Min(asym); m < 60 || m > 61 {
		t.Fatalf("best validation perplexity %v, want ~60.2 (Figure 6)", m)
	}
	// Figure 6's y-range is 60-70: the bulk of configurations must land
	// there (the Merity et al. space is a narrow region around a strong
	// configuration).
	if f := fracBelow(asym, 70); f < 0.5 {
		t.Fatalf("only %v of configs below perplexity 70; Table 3 space should be benign", f)
	}
	if f := fracBelow(asym, 61); f < 0.002 || f > 0.05 {
		t.Fatalf("P(ppl <= 61) = %v, want about 1%%", f)
	}
}

func TestSVMCalibrations(t *testing.T) {
	va, _ := sampleAsymptotes(SVMVehicle(), 20000)
	if m := slices.Min(va); m < 0.10 || m > 0.12 {
		t.Fatalf("vehicle best error %v, want ~0.105 (Figure 9)", m)
	}
	if f := fracBelow(va, 0.12); f < 0.01 {
		t.Fatalf("vehicle should be an easy 2-D task, P(<=0.12)=%v", f)
	}
	ma, _ := sampleAsymptotes(SVMMNIST(), 20000)
	if m := slices.Min(ma); m < 0.014 || m > 0.03 {
		t.Fatalf("mnist best error %v, want ~0.02 (Figure 9)", m)
	}
}

func TestSVHNCalibration(t *testing.T) {
	asym, _ := sampleAsymptotes(SmallCNNSVHN(), 30000)
	if m := slices.Min(asym); m < 0.022 || m > 0.035 {
		t.Fatalf("svhn best error %v, want ~0.023 (Figure 9)", m)
	}
	if f := fracBelow(asym, 0.05); f < 0.002 || f > 0.05 {
		t.Fatalf("P(svhn error <= 0.05) = %v", f)
	}
}
