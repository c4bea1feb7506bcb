package searchspace

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func testSpace() *Space {
	return New(
		Param{Name: "lr", Type: LogUniform, Lo: 1e-5, Hi: 10},
		Param{Name: "momentum", Type: Uniform, Lo: 0, Hi: 1},
		Param{Name: "layers", Type: IntUniform, Lo: 2, Hi: 8},
		Param{Name: "batch", Type: Choice, Choices: []float64{32, 64, 128, 256}},
	)
}

func TestSampleWithinBoundsProperty(t *testing.T) {
	s := testSpace()
	rng := xrand.New(1)
	f := func(uint8) bool {
		cfg := s.Sample(rng)
		return s.Contains(cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeInUnitCubeProperty(t *testing.T) {
	s := testSpace()
	rng := xrand.New(2)
	f := func(uint8) bool {
		x := s.Encode(s.Sample(rng))
		for _, v := range x {
			if v < 0 || v > 1 {
				return false
			}
		}
		return len(x) == s.Dim()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSpace()
	rng := xrand.New(3)
	for i := 0; i < 200; i++ {
		cfg := s.Sample(rng)
		back := s.Decode(s.Encode(cfg))
		for _, p := range s.Params() {
			a, b := cfg.Get(p.Name), back.Get(p.Name)
			switch p.Type {
			case LogUniform:
				if math.Abs(math.Log(a)-math.Log(b)) > 1e-9 {
					t.Fatalf("%s: %v != %v", p.Name, a, b)
				}
			default:
				if math.Abs(a-b) > 1e-9 {
					t.Fatalf("%s: %v != %v", p.Name, a, b)
				}
			}
		}
	}
}

func TestDecodeAlwaysLegalProperty(t *testing.T) {
	s := testSpace()
	rng := xrand.New(4)
	f := func(uint8) bool {
		x := make([]float64, s.Dim())
		for i := range x {
			x[i] = rng.Float64()
		}
		return s.Contains(s.Decode(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbStaysLegalProperty(t *testing.T) {
	s := testSpace()
	rng := xrand.New(5)
	f := func(up bool) bool {
		cfg := s.Sample(rng)
		factor := 0.8
		if up {
			factor = 1.2
		}
		for _, p := range s.Params() {
			if !p.Contains(p.Perturb(cfg.Get(p.Name), factor)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbChoiceMovesAdjacent(t *testing.T) {
	p := Param{Name: "batch", Type: Choice, Choices: []float64{32, 64, 128}}
	if v := p.Perturb(64, 1.2); v != 128 {
		t.Fatalf("up-perturb from 64 = %v, want 128", v)
	}
	if v := p.Perturb(64, 0.8); v != 32 {
		t.Fatalf("down-perturb from 64 = %v, want 32", v)
	}
	// Boundary cases stay at the edge.
	if v := p.Perturb(128, 1.2); v != 128 {
		t.Fatalf("up-perturb at top = %v", v)
	}
	if v := p.Perturb(32, 0.8); v != 32 {
		t.Fatalf("down-perturb at bottom = %v", v)
	}
}

func TestPerturbIntMovesByOne(t *testing.T) {
	p := Param{Name: "layers", Type: IntUniform, Lo: 2, Hi: 8}
	if v := p.Perturb(4, 1.2); v != 5 {
		t.Fatalf("int up = %v", v)
	}
	if v := p.Perturb(4, 0.8); v != 3 {
		t.Fatalf("int down = %v", v)
	}
	if v := p.Perturb(8, 1.2); v != 8 {
		t.Fatalf("int clamp = %v", v)
	}
}

func TestPerturbContinuousClamps(t *testing.T) {
	p := Param{Name: "m", Type: Uniform, Lo: 0, Hi: 1}
	if v := p.Perturb(0.9, 1.2); v != 1 {
		t.Fatalf("clamped perturb = %v", v)
	}
}

func TestLogUniformSamplingIsLogScaled(t *testing.T) {
	p := Param{Name: "lr", Type: LogUniform, Lo: 1e-4, Hi: 1}
	rng := xrand.New(6)
	below := 0
	n := 20000
	mid := math.Sqrt(1e-4 * 1)
	for i := 0; i < n; i++ {
		if p.Sample(rng) < mid {
			below++
		}
	}
	if frac := float64(below) / float64(n); frac < 0.47 || frac > 0.53 {
		t.Fatalf("log-uniform sampling skewed: %v below geometric mid", frac)
	}
}

func TestChoiceSamplingCoversAll(t *testing.T) {
	p := Param{Name: "c", Type: Choice, Choices: []float64{1, 2, 3}}
	rng := xrand.New(7)
	seen := map[float64]bool{}
	for i := 0; i < 300; i++ {
		seen[p.Sample(rng)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("choice sampling missed values: %v", seen)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Param{
		{Name: "", Type: Uniform, Lo: 0, Hi: 1},
		{Name: "x", Type: Uniform, Lo: 1, Hi: 0},
		{Name: "x", Type: LogUniform, Lo: 0, Hi: 1},
		{Name: "x", Type: LogUniform, Lo: -1, Hi: 1},
		{Name: "x", Type: Choice},
		{Name: "x", Type: Choice, Choices: []float64{3, 1, 2}},
		{Name: "x", Type: Type(99), Lo: 0, Hi: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestNewPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate parameter")
		}
	}()
	New(
		Param{Name: "x", Type: Uniform, Lo: 0, Hi: 1},
		Param{Name: "x", Type: Uniform, Lo: 0, Hi: 1},
	)
}

func TestConfigClone(t *testing.T) {
	c := FromMap(map[string]float64{"a": 1})
	d := c.Clone()
	d.SetAt(0, 2)
	if c.Get("a") != 1 {
		t.Fatal("Clone is shallow")
	}
}

func TestContainsRejectsWrongShape(t *testing.T) {
	s := testSpace()
	rng := xrand.New(8)
	m := s.Sample(rng).Map()
	delete(m, "lr")
	if s.Contains(FromMap(m)) {
		t.Fatal("Contains accepted missing parameter")
	}
	cfg := s.Sample(rng)
	cfg.SetAt(s.IndexOf("lr"), 1e9) // out of bounds
	if s.Contains(cfg) {
		t.Fatal("Contains accepted out-of-bounds value")
	}
	cfg = s.Sample(rng)
	cfg.SetAt(s.IndexOf("batch"), 100) // not a choice
	if s.Contains(cfg) {
		t.Fatal("Contains accepted illegal choice")
	}
}

func TestParamLookup(t *testing.T) {
	s := testSpace()
	if p, ok := s.Param("lr"); !ok || p.Type != LogUniform {
		t.Fatal("Param lookup failed")
	}
	if _, ok := s.Param("nope"); ok {
		t.Fatal("Param lookup found a ghost")
	}
}

func TestTableRendering(t *testing.T) {
	tab := testSpace().Table()
	for _, want := range []string{"lr", "continuous log", "{32, 64, 128, 256}", "[2, 8]", "Hyperparameter"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
}

func TestSampleEncodedMatchesEncodeSample(t *testing.T) {
	// The fast encoded sampler must produce the same distribution as
	// Encode(Sample()): compare per-dimension means over many draws.
	s := testSpace()
	rng1 := xrand.New(20)
	rng2 := xrand.New(21)
	n := 20000
	sumA := make([]float64, s.Dim())
	sumB := make([]float64, s.Dim())
	buf := make([]float64, s.Dim())
	for i := 0; i < n; i++ {
		x := s.Encode(s.Sample(rng1))
		s.SampleEncoded(rng2, buf)
		for d := 0; d < s.Dim(); d++ {
			sumA[d] += x[d]
			sumB[d] += buf[d]
		}
	}
	for d := 0; d < s.Dim(); d++ {
		a, b := sumA[d]/float64(n), sumB[d]/float64(n)
		if math.Abs(a-b) > 0.02 {
			t.Fatalf("dim %d: encoded-sample mean %v vs %v", d, a, b)
		}
	}
}

func TestSampleEncodedBufferValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong buffer length")
		}
	}()
	testSpace().SampleEncoded(xrand.New(1), make([]float64, 1))
}

// ---------------------------------------------------------------------
// Vector-config compatibility layer.

func TestConfigAccessors(t *testing.T) {
	s := testSpace()
	cfg := s.Sample(xrand.New(30))
	if cfg.Len() != s.Dim() {
		t.Fatalf("Len = %d, want %d", cfg.Len(), s.Dim())
	}
	if cfg.IsZero() {
		t.Fatal("sampled config is zero")
	}
	if (Config{}).IsZero() == false {
		t.Fatal("zero config not IsZero")
	}
	// Get/Lookup/At agree, in param order.
	for i, p := range s.Params() {
		if cfg.Get(p.Name) != cfg.At(i) {
			t.Fatalf("%s: Get %v != At %v", p.Name, cfg.Get(p.Name), cfg.At(i))
		}
		v, ok := cfg.Lookup(p.Name)
		if !ok || v != cfg.At(i) {
			t.Fatalf("%s: Lookup mismatch", p.Name)
		}
	}
	if _, ok := cfg.Lookup("ghost"); ok {
		t.Fatal("Lookup found a ghost parameter")
	}
	if cfg.Get("ghost") != 0 {
		t.Fatal("Get of missing parameter should be 0 (map semantics)")
	}
	cfg.SetAt(1, 0.75)
	if cfg.Get("momentum") != 0.75 {
		t.Fatal("SetAt failed")
	}
}

func TestConfigEqual(t *testing.T) {
	s := testSpace()
	a := s.Sample(xrand.New(31))
	b := a.Clone()
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("clone not Equal")
	}
	b.SetAt(s.IndexOf("momentum"), b.Get("momentum")/2+0.001)
	if a.Equal(b) {
		t.Fatal("Equal ignored a changed value")
	}
	// Foreign-table config with identical name/value pairs is Equal.
	c := FromMap(a.Map())
	if !a.Equal(c) || !c.Equal(a) {
		t.Fatal("map-round-tripped config not Equal")
	}
	if a.Equal(Config{}) || !(Config{}).Equal(Config{}) {
		t.Fatal("zero-config equality wrong")
	}
}

func TestConfigMapRoundTrip(t *testing.T) {
	s := testSpace()
	cfg := s.Sample(xrand.New(32))
	m := cfg.Map()
	if len(m) != s.Dim() {
		t.Fatalf("Map has %d entries, want %d", len(m), s.Dim())
	}
	back := s.FromMap(m)
	if !cfg.Equal(back) {
		t.Fatalf("FromMap(Map()) = %v, want %v", back, cfg)
	}
	// Space.FromMap ignores foreign names and zero-fills missing ones.
	partial := s.FromMap(map[string]float64{"lr": 0.5, "ghost": 9})
	if partial.Get("lr") != 0.5 || partial.Get("momentum") != 0 {
		t.Fatal("Space.FromMap alignment wrong")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	s := testSpace()
	cfg := s.Sample(xrand.New(33))
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The wire form must be a name-keyed object (subprocess protocol).
	var asMap map[string]float64
	if err := json.Unmarshal(blob, &asMap); err != nil {
		t.Fatalf("wire form is not a name-keyed object: %v\n%s", err, blob)
	}
	for _, p := range s.Params() {
		if asMap[p.Name] != cfg.Get(p.Name) {
			t.Fatalf("wire value for %s = %v, want %v", p.Name, asMap[p.Name], cfg.Get(p.Name))
		}
	}
	var back Config
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !cfg.Equal(back) {
		t.Fatalf("JSON round trip: %v != %v", back, cfg)
	}
}

func TestArenaSampleMatchesSpaceSample(t *testing.T) {
	// Arena-backed sampling must consume the RNG identically to
	// Space.Sample — this is what keeps scheduler decisions bit-identical
	// to the seed implementation.
	s := testSpace()
	rngA, rngB := xrand.New(40), xrand.New(40)
	arena := s.NewArena()
	for i := 0; i < 1000; i++ {
		a := s.Sample(rngA)
		b := arena.Sample(rngB)
		if !a.Equal(b) {
			t.Fatalf("draw %d: arena %v != space %v", i, b, a)
		}
	}
}

func TestArenaConfigsAreIndependent(t *testing.T) {
	s := testSpace()
	rng := xrand.New(41)
	arena := s.NewArena()
	cfgs := make([]Config, 600) // spans multiple slabs
	for i := range cfgs {
		cfgs[i] = arena.Sample(rng)
	}
	// Writing one arena config must not disturb its neighbors.
	snapshot := cfgs[1].Clone()
	cfgs[0].SetAt(0, -123)
	cfgs[2].SetAt(s.Dim()-1, -456)
	if !cfgs[1].Equal(snapshot) {
		t.Fatal("arena slabs alias between configurations")
	}
	if got := arena.Clone(cfgs[3]); !got.Equal(cfgs[3]) {
		t.Fatal("arena Clone mismatch")
	}
}
