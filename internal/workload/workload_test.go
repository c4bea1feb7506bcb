package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestParamsAreDeterministicPerConfig(t *testing.T) {
	b := CudaConvnet()
	rng := xrand.New(1)
	for i := 0; i < 100; i++ {
		cfg := b.Space().Sample(rng)
		p1 := b.ParamsFor(cfg)
		p2 := b.ParamsFor(cfg.Clone())
		if p1 != p2 {
			t.Fatal("ParamsFor is not a pure function of the configuration")
		}
	}
}

func TestBenchmarksShareSurfaceAcrossNoiseSeeds(t *testing.T) {
	b1 := PTBLSTM()
	b2 := PTBLSTM().WithNoiseSeed(7)
	rng := xrand.New(2)
	for i := 0; i < 50; i++ {
		cfg := b1.Space().Sample(rng)
		if b1.ParamsFor(cfg) != b2.ParamsFor(cfg) {
			t.Fatal("WithNoiseSeed changed the response surface")
		}
	}
}

func TestNoiseSeedsChangeObservations(t *testing.T) {
	b1 := CudaConvnet().WithNoiseSeed(1)
	b2 := CudaConvnet().WithNoiseSeed(2)
	cfg := b1.Space().Sample(xrand.New(3))
	t1 := b1.NewTrial(0, cfg)
	t2 := b2.NewTrial(0, cfg)
	same := 0
	for i := 0; i < 20; i++ {
		if t1.Train(100) == t2.Train(100) {
			same++
		}
	}
	if same == 20 {
		t.Fatal("different noise seeds produced identical observations")
	}
}

func TestTrialTrainsTowardAsymptote(t *testing.T) {
	b := CudaConvnet()
	rng := xrand.New(4)
	for i := 0; i < 20; i++ {
		cfg := b.Space().Sample(rng)
		tr := b.NewTrial(i, cfg)
		tr.Train(b.MaxResource() * 10)
		want := b.ParamsFor(cfg).Asymptote
		if math.Abs(tr.TrueLoss()-want) > 1e-3 {
			t.Fatalf("trial converged to %v, want %v", tr.TrueLoss(), want)
		}
	}
}

func TestTrialCheckpointRestore(t *testing.T) {
	b := SmallCNNCIFAR()
	cfg := b.Space().Sample(xrand.New(5))
	tr := b.NewTrial(0, cfg)
	tr.Train(1000)
	cp := tr.Checkpoint()
	loss := tr.TrueLoss()
	tr.Train(5000)
	tr.Restore(cp)
	if tr.TrueLoss() != loss || tr.Resource() != 1000 {
		t.Fatal("checkpoint/restore did not rewind the trial")
	}
}

func TestTrialInheritAndSetConfig(t *testing.T) {
	b := SmallCNNCIFAR()
	rng := xrand.New(6)
	donor := b.NewTrial(0, b.Space().Sample(rng))
	donor.Train(8000)
	heirCfg := b.Space().Sample(rng)
	heir := b.NewTrial(1, heirCfg)
	heir.InheritFrom(donor)
	if heir.TrueLoss() != donor.TrueLoss() || heir.Resource() != donor.Resource() {
		t.Fatal("InheritFrom did not copy the donor state")
	}
	newCfg := b.Space().Sample(rng)
	heir.SetConfig(newCfg)
	if heir.TrueLoss() != donor.TrueLoss() {
		t.Fatal("SetConfig should keep the inherited weights")
	}
	heir.Train(b.MaxResource() * 10)
	// The mid-training switch carries a plasticity handicap on top of
	// the new configuration's from-scratch asymptote (see Calibration).
	base := b.ParamsFor(newCfg).Asymptote
	if heir.TrueLoss() < base-1e-9 {
		t.Fatal("switched trial beat the new configuration's from-scratch asymptote")
	}
	if heir.TrueLoss() > base+0.1 {
		t.Fatalf("plasticity handicap too large: %v vs asymptote %v", heir.TrueLoss(), base)
	}
}

func TestPlasticityHandicapAccumulates(t *testing.T) {
	b := SmallCNNCIFAR()
	rng := xrand.New(60)
	cfg := b.Space().Sample(rng)
	tr := b.NewTrial(0, cfg)
	tr.Train(b.MaxResource() / 2)
	other := b.Space().Sample(rng)
	tr.SetConfig(other)
	h1 := tr.Checkpoint().Handicap
	if h1 <= 0 {
		t.Fatal("mid-training switch should accrue a handicap")
	}
	tr.SetConfig(cfg)
	if h2 := tr.Checkpoint().Handicap; h2 <= h1 {
		t.Fatal("handicap should accumulate over switches")
	}
}

func TestPlasticityZeroBeforeTraining(t *testing.T) {
	b := SmallCNNCIFAR()
	rng := xrand.New(61)
	tr := b.NewTrial(0, b.Space().Sample(rng))
	tr.SetConfig(b.Space().Sample(rng))
	if h := tr.Checkpoint().Handicap; h != 0 {
		t.Fatalf("switch before any training should be free, got handicap %v", h)
	}
}

func TestHandicapTravelsWithInheritedWeights(t *testing.T) {
	b := SmallCNNCIFAR()
	rng := xrand.New(62)
	donor := b.NewTrial(0, b.Space().Sample(rng))
	donor.Train(1000)
	donor.SetConfig(b.Space().Sample(rng))
	heir := b.NewTrial(1, b.Space().Sample(rng))
	heir.InheritFrom(donor)
	if heir.Checkpoint().Handicap != donor.Checkpoint().Handicap {
		t.Fatal("handicap should travel with inherited weights")
	}
}

func TestLowRungLossesRankCorrelateWithAsymptote(t *testing.T) {
	// Early-stopping only works if partial-resource losses carry signal
	// about full-resource losses; check Spearman-ish correlation between
	// loss at R/16 and the asymptote over random configs.
	b := CudaConvnet()
	rng := xrand.New(7)
	n := 300
	early := make([]float64, n)
	late := make([]float64, n)
	for i := 0; i < n; i++ {
		cfg := b.Space().Sample(rng)
		tr := b.NewTrial(i, cfg)
		early[i] = tr.Train(b.MaxResource() / 16)
		late[i] = b.ParamsFor(cfg).Asymptote
	}
	if corr := pearson(early, late); corr < 0.5 {
		t.Fatalf("early losses barely predict final quality: corr=%v", corr)
	}
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	return cov / math.Sqrt(va*vb)
}

func TestCostSpreadProperty(t *testing.T) {
	// Cost multipliers must always be positive and finite.
	b := SmallCNNCIFAR()
	rng := xrand.New(8)
	f := func(uint8) bool {
		p := b.ParamsFor(b.Space().Sample(rng))
		return p.CostPerUnit > 0 && !math.IsInf(p.CostPerUnit, 0) && !math.IsNaN(p.CostPerUnit)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPTBDivergenceRule(t *testing.T) {
	b := PTBLSTM()
	space := b.Space()
	cfg := space.Sample(xrand.New(9))
	cfg.SetAt(space.IndexOf("learning rate"), 50)
	cfg.SetAt(space.IndexOf("clip gradients"), 1.5)
	p := b.ParamsFor(cfg)
	if !p.Diverges {
		t.Fatal("high-lr low-clip configuration should diverge")
	}
	tr := b.NewTrial(0, cfg)
	tr.Train(b.MaxResource())
	if tr.TrueLoss() < 1000 {
		t.Fatalf("diverged configuration has tame perplexity %v", tr.TrueLoss())
	}
	cfg.SetAt(space.IndexOf("learning rate"), 1)
	if b.ParamsFor(cfg).Diverges {
		t.Fatal("moderate learning rate should not diverge")
	}
}

func TestArchParamsExistInSpace(t *testing.T) {
	space := SmallCNNSpace()
	for _, name := range ArchParams() {
		if _, ok := space.Param(name); !ok {
			t.Fatalf("arch param %q missing from Table 1 space", name)
		}
	}
}

func TestSpacesMatchPaperTables(t *testing.T) {
	// Table 1: 10 hyperparameters; Table 2: 9; Table 3: 9; cuda-convnet: 8.
	if d := SmallCNNSpace().Dim(); d != 10 {
		t.Fatalf("Table 1 space has %d params, want 10", d)
	}
	if d := PTBLSTMSpace().Dim(); d != 9 {
		t.Fatalf("Table 2 space has %d params, want 9", d)
	}
	if d := DropConnectSpace().Dim(); d != 9 {
		t.Fatalf("Table 3 space has %d params, want 9", d)
	}
	if d := CudaConvnetSpace().Dim(); d != 8 {
		t.Fatalf("cuda-convnet space has %d params, want 8", d)
	}
	if d := SVMSpace().Dim(); d != 2 {
		t.Fatalf("SVM space has %d params, want 2", d)
	}
}
