package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIsStable(t *testing.T) {
	a := New(7).Split("workers")
	b := New(7).Split("workers")
	for i := 0; i < 32; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-name splits diverged")
		}
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	p1 := New(9)
	p2 := New(9)
	_ = p1.Split("child")
	for i := 0; i < 16; i++ {
		if p1.Uint64() != p2.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

func TestSplitNamesIndependent(t *testing.T) {
	a := New(7).Split("alpha")
	b := New(7).Split("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different split names look correlated: %d matches", same)
	}
}

func TestSplitIndexIndependent(t *testing.T) {
	r := New(3)
	a := r.SplitIndex("trial", 0)
	b := r.SplitIndex("trial", 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent indices look correlated: %d matches", same)
	}
}

func TestUniformBounds(t *testing.T) {
	r := New(11)
	f := func(seed uint16) bool {
		lo, hi := 2.5, 7.25
		v := r.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogUniformBounds(t *testing.T) {
	r := New(12)
	for i := 0; i < 10000; i++ {
		v := r.LogUniform(1e-5, 1e2)
		if v < 1e-5 || v > 1e2 {
			t.Fatalf("LogUniform out of bounds: %v", v)
		}
	}
}

func TestLogUniformIsLogScaled(t *testing.T) {
	// Half the mass should fall below the geometric midpoint.
	r := New(13)
	lo, hi := 1e-4, 1e4
	mid := math.Sqrt(lo * hi)
	below := 0
	n := 20000
	for i := 0; i < n; i++ {
		if r.LogUniform(lo, hi) < mid {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("log-uniform median off: %.3f of mass below geometric mid", frac)
	}
}

func TestLogUniformPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive bounds")
		}
	}()
	New(1).LogUniform(0, 1)
}

func TestUniformIntInclusive(t *testing.T) {
	r := New(14)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.UniformInt(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 6; v++ {
		if !seen[v] {
			t.Fatalf("UniformInt never produced %d", v)
		}
	}
}

func TestHalfNormalAbsNonNegative(t *testing.T) {
	r := New(15)
	for i := 0; i < 1000; i++ {
		if r.HalfNormalAbs(1.5) < 0 {
			t.Fatal("HalfNormalAbs returned negative value")
		}
	}
}

func TestHalfNormalAbsMean(t *testing.T) {
	// E|Z| for Z ~ N(0, sd) is sd * sqrt(2/pi).
	r := New(16)
	sd := 2.0
	n := 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.HalfNormalAbs(sd)
	}
	got := sum / float64(n)
	want := sd * math.Sqrt(2/math.Pi)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("half-normal mean %v, want about %v", got, want)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(17)
	hits := 0
	n := 50000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Bernoulli(0.3) frequency %v", frac)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(18)
	n := 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(3)
	}
	if m := sum / float64(n); m < 2.85 || m > 3.15 {
		t.Fatalf("Exponential(3) mean %v", m)
	}
}

// streamDigest folds the first 64 draws of Float64, then of NormFloat64,
// then of IntN into one hash.
func streamDigest(r *RNG) uint64 {
	h := NewFNV64()
	for i := 0; i < 64; i++ {
		h.Uint64(math.Float64bits(r.Float64()))
	}
	for i := 0; i < 64; i++ {
		h.Uint64(math.Float64bits(r.src.NormFloat64()))
	}
	for i := 0; i < 64; i++ {
		h.Uint64(uint64(r.IntN(1_000_003)))
	}
	return h.Sum()
}

// TestSplitIndexStreamsPinned holds SplitIndex and SplitIndexInto to the
// streams SplitIndex produced before the Rand wrapper moved into the
// RNG by value: the digests are literals captured at that commit.
func TestSplitIndexStreamsPinned(t *testing.T) {
	cases := []struct {
		seed  uint64
		name  string
		index int
		want  uint64
	}{
		{0, "", 0, 0xfc8c1ef11e5f0889},
		{1, "trial-noise", 0, 0x5c1ee9683def68a9},
		{1, "trial-noise", 1, 0x6a812881ce23526e},
		{0xA5A5_0004, "trial-noise", 99_999, 0xbcc735d4e664e489},
		{0xA5A5_0004 ^ (0x517c_c1b7_2722_0a95 * 3), "trial-noise", 12_345, 0xfa8b35f8540eb9a5},
		{42, "cfg", 7, 0xf9d98bf30911bf5c},
		{math.MaxUint64, "a longer stream name, with spaces", math.MaxInt32, 0xaa1917ac7d5f0350},
	}
	var inPlace RNG
	for _, c := range cases {
		parent := New(c.seed)
		if got := streamDigest(parent.SplitIndex(c.name, c.index)); got != c.want {
			t.Errorf("SplitIndex(%#x, %q, %d): stream digest %#x, want %#x", c.seed, c.name, c.index, got, c.want)
		}
		// The same record is reused for every case: an in-place split
		// must leave nothing of the stream it replaces.
		parent.SplitIndexInto(&inPlace, c.name, c.index)
		if got := streamDigest(&inPlace); got != c.want {
			t.Errorf("SplitIndexInto(%#x, %q, %d): stream digest %#x, want %#x", c.seed, c.name, c.index, got, c.want)
		}
	}
}

// TestSplitAllocations pins what an RNG costs: one object when it is
// returned, none when it is initialised where it already lives.
func TestSplitAllocations(t *testing.T) {
	parent := New(3)
	var sink *RNG
	if n := testing.AllocsPerRun(100, func() { sink = parent.SplitIndex("trial-noise", 5) }); n != 1 {
		t.Errorf("SplitIndex allocates %v objects, want 1", n)
	}
	_ = sink
	var dst RNG
	if n := testing.AllocsPerRun(100, func() { parent.SplitIndexInto(&dst, "trial-noise", 5) }); n != 0 {
		t.Errorf("SplitIndexInto allocates %v objects, want 0", n)
	}
}
