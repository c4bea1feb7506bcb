package workload

// Bit-identity of the fast paths a simulated trial takes — tabulated
// surface terms, the percentile bucket index, the in-place trial — with
// the plain ones: every comparison is on math.Float64bits.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/curve"
	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// wideSpace has more dimensions than ParamsFor's stack buffer holds and
// one parameter of every shape levelEncodings distinguishes: tabulated,
// too many levels, a single level, fractional integer bounds.
func wideSpace() *searchspace.Space {
	ps := []searchspace.Param{
		{Name: "int", Type: searchspace.IntUniform, Lo: -3, Hi: 12},
		{Name: "int-wide", Type: searchspace.IntUniform, Lo: 0, Hi: 3 * maxTabulatedLevels},
		{Name: "int-one", Type: searchspace.IntUniform, Lo: 7, Hi: 7},
		{Name: "int-frac", Type: searchspace.IntUniform, Lo: 0.5, Hi: 9.5},
		{Name: "choice", Type: searchspace.Choice, Choices: []float64{-1, 0.25, 8, 64}},
		{Name: "choice-one", Type: searchspace.Choice, Choices: []float64{3}},
		{Name: "log", Type: searchspace.LogUniform, Lo: 1e-4, Hi: 10},
		{Name: "log-one", Type: searchspace.LogUniform, Lo: 2, Hi: 2},
	}
	for i := len(ps); i < 20; i++ {
		ps = append(ps, searchspace.Param{Name: fmt.Sprintf("u%d", i), Type: searchspace.Uniform, Lo: -1, Hi: 1})
	}
	return searchspace.New(ps...)
}

func wideBenchmark() *Benchmark {
	space := wideSpace()
	return NewBenchmark("wide-custom", space, 81, 1, 0xD1CE, Calibration{
		InitialLoss: 1, BestLoss: 0.1, WorstLoss: 0.9, Hardness: 1.7,
		RateLo: 4, RateHi: 12, RateCouple: 0.4, NoiseSD: 0.01,
		Idiosyncrasy: 0.002, Plasticity: 0.01,
		CostSpread:  func(cfg searchspace.Config) float64 { return 1 + 0.01*cfg.At(0) },
		CostQuality: func(u float64) float64 { return 0.5 + u },
		Diverges:    func(cfg searchspace.Config) bool { return cfg.At(4) == 64 && cfg.At(0) > 10 },
	})
}

func namedBenchmarks() []*Benchmark {
	return []*Benchmark{
		CudaConvnet(), SmallCNNCIFAR(), SmallCNNSVHN(), PTBLSTM(),
		DropConnectLSTM(), SVMVehicle(), SVMMNIST(),
	}
}

func allBenchmarks() []*Benchmark { return append(namedBenchmarks(), wideBenchmark()) }

// refPercentile is percentile as it was written before the bucket index:
// one sort.SearchFloat64s over the whole table.
func refPercentile(b *Benchmark, q float64) float64 {
	n := len(b.qcdf)
	nf := float64(n + 1)
	idx := sort.SearchFloat64s(b.qcdf, q)
	var u float64
	switch {
	case idx == 0:
		lo := b.qcdf[0]
		frac := 1.0
		if lo > 1e-12 {
			frac = q / lo
		}
		u = frac * 0.5 / nf
	case idx == n:
		hi := b.qcdf[n-1]
		span := 1 - hi
		frac := 1.0
		if span > 1e-12 {
			frac = (q - hi) / span
			if frac > 1 {
				frac = 1
			}
		}
		u = (float64(n) - 0.5 + frac*1.5) / nf
	default:
		a, c := b.qcdf[idx-1], b.qcdf[idx]
		frac := 0.5
		if c > a {
			frac = (q - a) / (c - a)
		}
		u = (float64(idx-1) + 0.5 + frac) / nf
	}
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// refCal is a benchmark's cost and divergence as the reference computes
// them: each from its formula, reading every parameter by name, so a
// configuration's name table never decides which parameter is read.
type refCal struct {
	cost     func(searchspace.Config) float64
	diverges func(searchspace.Config) bool
}

func newRefCal(b *Benchmark) refCal {
	return refCal{cost: refCost(b), diverges: refDiverges(b)}
}

// refCost is a benchmark's CostSpread as it was written before its
// factors were tabulated: the formula on every call, normalized by its own
// Monte-Carlo mean.
func refCost(b *Benchmark) func(searchspace.Config) float64 {
	at := searchspace.Config.Get
	var raw func(cfg searchspace.Config) float64
	switch b.name {
	case "cifar10-small-cnn", "svhn-small-cnn":
		raw = func(cfg searchspace.Config) float64 {
			return (at(cfg, "# of layers") / 3) * math.Pow(at(cfg, "# of filters")/40, 1.6) * math.Pow(at(cfg, "batch size")/256, 0.85)
		}
	case "ptb-lstm":
		raw = func(cfg searchspace.Config) float64 {
			return math.Pow(at(cfg, "# of hidden nodes")/850, 1.3) * math.Pow(45/at(cfg, "batch size"), 0.25)
		}
	case "ptb-dropconnect-lstm":
		raw = func(cfg searchspace.Config) float64 {
			return math.Pow(20/at(cfg, "batch size"), 0.5) * math.Pow(at(cfg, "time steps")/70, 0.3)
		}
	case "wide-custom":
		return func(cfg searchspace.Config) float64 { return 1 + 0.01*cfg.Get("int") }
	default:
		return nil // the other benchmarks' costs are constant
	}
	rng := xrand.New(b.seed ^ 0xC057_0000_0000_0001)
	const samples = 4096
	total := 0.0
	for i := 0; i < samples; i++ {
		total += raw(b.space.Sample(rng))
	}
	mean := total / samples
	return func(cfg searchspace.Config) float64 { return raw(cfg) / mean }
}

// refDiverges is a benchmark's Diverges, read by name.
func refDiverges(b *Benchmark) func(searchspace.Config) bool {
	switch b.name {
	case "ptb-lstm":
		return func(cfg searchspace.Config) bool {
			return cfg.Get("learning rate") > 10 && cfg.Get("clip gradients") < 4
		}
	case "wide-custom":
		return func(cfg searchspace.Config) bool { return cfg.Get("choice") == 64 && cfg.Get("int") > 10 }
	}
	return nil
}

// refParamsFor is ParamsFor as it was written before tabulation: both
// surfaces through Quality, the percentile through refPercentile, the
// encoding through Param.Encode, the cost and divergence through ref.
func refParamsFor(b *Benchmark, ref refCal, cfg searchspace.Config) curve.Params {
	x := make([]float64, b.space.Dim())
	for i, p := range b.space.Params() {
		x[i] = p.Encode(cfg.Get(p.Name))
	}
	q := b.quality.Quality(x)
	u := refPercentile(b, q)
	asym := b.cal.BestLoss + (b.cal.WorstLoss-b.cal.BestLoss)*math.Pow(1-u, 1/b.cal.Hardness)
	mix := (1-b.cal.RateCouple)*b.speed.Quality(x) + b.cal.RateCouple*u
	kappa := b.cal.RateLo + (b.cal.RateHi-b.cal.RateLo)*mix
	cost := b.timeR / b.maxResource
	if ref.cost != nil {
		cost *= ref.cost(cfg)
	}
	if b.cal.CostQuality != nil {
		cost *= b.cal.CostQuality(u)
	}
	if b.cal.Idiosyncrasy > 0 {
		asym += (hash01(x) - 0.5) * 2 * b.cal.Idiosyncrasy
	}
	p := curve.Params{
		Initial:     b.cal.InitialLoss,
		Asymptote:   asym,
		Rate:        kappa / b.maxResource,
		NoiseSD:     b.cal.NoiseSD,
		CostPerUnit: cost,
	}
	if ref.diverges != nil && ref.diverges(cfg) {
		p.Diverges = true
		p.DivergeLevel = b.cal.DivergeLevel
	}
	return p
}

// paramsBits is p with every float replaced by its bits.
func paramsBits(p curve.Params) [7]uint64 {
	d := uint64(0)
	if p.Diverges {
		d = 1
	}
	return [7]uint64{
		math.Float64bits(p.Initial), math.Float64bits(p.Asymptote), math.Float64bits(p.Rate),
		math.Float64bits(p.NoiseSD), math.Float64bits(p.CostPerUnit), d, math.Float64bits(p.DivergeLevel),
	}
}

// checkConfig holds ParamsFor and both surfaces' Eval to the reference
// at cfg; ref is newRefCal(b).
func checkConfig(t *testing.T, b *Benchmark, ref refCal, cfg searchspace.Config) {
	t.Helper()
	if got, want := paramsBits(b.ParamsFor(cfg)), paramsBits(refParamsFor(b, ref, cfg)); got != want {
		t.Fatalf("%s: ParamsFor(%v) = %x, reference %x", b.name, cfg, got, want)
	}
	x := b.space.Encode(cfg)
	for _, s := range []*curve.Surface{b.quality, b.speed} {
		if got, want := s.Eval(x), s.Quality(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Eval(%v) = %x, Quality %x", b.name, x, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestParamsForMatchesReference(t *testing.T) {
	for _, b := range allBenchmarks() {
		space := b.Space()
		ref := newRefCal(b)
		rng := xrand.New(b.seed ^ 0x7e57)
		for n := 0; n < 10000; n++ {
			checkConfig(t, b, ref, space.Sample(rng))
		}
		// From a sampled base, each parameter in turn through values the
		// sampler never draws: off the grid, outside the bounds, beside a
		// level, PBT-perturbed.
		for n := 0; n < 50; n++ {
			base := space.Sample(rng)
			for i, p := range space.Params() {
				v := base.At(i)
				vals := []float64{
					v + 0.5, v - 0.25, v * 1.0000001, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)),
					p.Lo - 3, p.Hi + 7, p.Lo, p.Hi, (p.Lo + p.Hi) / 2, 0, math.Copysign(0, -1),
					p.Perturb(v, 0.8), p.Perturb(v, 1.2), p.Perturb(p.Perturb(v, 1.2), 1.2),
					p.Decode(rng.Float64()),
				}
				for _, c := range p.Choices {
					vals = append(vals, c, c+0.1)
				}
				if p.Name == "batch size" {
					vals = append(vals, 37.5) // between two tabulated cost levels
				}
				if p.Name == "# of hidden nodes" {
					vals = append(vals, 1501, 199) // beside the cost table's ends
				}
				for _, nv := range vals {
					cfg := base.Clone()
					cfg.SetAt(i, nv)
					checkConfig(t, b, ref, cfg)
				}
			}
			// The same values under a name table the space does not own.
			checkConfig(t, b, ref, searchspace.FromMap(base.Map()))
		}
	}
}

// TestParamsForIgnoresNameTable holds ParamsFor to one answer per
// configuration, whatever name table carries it: a copy through
// searchspace.FromMap or JSON (both sort the names) gets the same
// parameters, bit for bit, as the space's own configuration.
func TestParamsForIgnoresNameTable(t *testing.T) {
	for _, b := range allBenchmarks() {
		t.Run(b.name, func(t *testing.T) {
			rng := xrand.New(b.seed ^ 0x7ab1e)
			for n := 0; n < 2000; n++ {
				cfg := b.Space().Sample(rng)
				want := paramsBits(b.ParamsFor(cfg))
				var viaJSON searchspace.Config
				blob, err := json.Marshal(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(blob, &viaJSON); err != nil {
					t.Fatal(err)
				}
				for _, foreign := range []searchspace.Config{searchspace.FromMap(cfg.Map()), viaJSON} {
					if got := paramsBits(b.ParamsFor(foreign)); got != want {
						t.Fatalf("ParamsFor(%v) = %x under another name table, %x under the space's", cfg, got, want)
					}
				}
			}
		})
	}
}

func TestRankMatchesSearch(t *testing.T) {
	for _, b := range allBenchmarks() {
		check := func(q float64) {
			t.Helper()
			if got, want := b.rank(q), sort.SearchFloat64s(b.qcdf, q); got != want {
				t.Fatalf("%s: rank(%v) = %d, SearchFloat64s = %d", b.name, q, got, want)
			}
			if got, want := b.percentile(q), refPercentile(b, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: percentile(%v) = %v, reference %v", b.name, q, got, want)
			}
		}
		for _, q := range b.qcdf {
			check(q)
			check(math.Nextafter(q, 0))
			check(math.Nextafter(q, 1))
		}
		for j := 0; j <= qidxBuckets; j++ {
			edge := float64(j) / qidxBuckets
			check(edge)
			check(math.Nextafter(edge, math.Inf(-1)))
			check(math.Nextafter(edge, math.Inf(1)))
		}
		for _, q := range []float64{0, math.Copysign(0, -1), 1, -0.5, 1.5, math.Inf(1), math.Inf(-1), math.NaN(), 1e-300} {
			check(q)
		}
		rng := xrand.New(b.seed ^ 0x9a4c)
		for n := 0; n < 10000; n++ {
			check(rng.Float64())
		}
	}
}

// TestInitTrialMatchesNewTrial drives a pair of in-place trials and a
// pair from NewTrial through one script of Train, Checkpoint, Restore,
// InheritFrom and SetConfig. The in-place records start dirty.
func TestInitTrialMatchesNewTrial(t *testing.T) {
	for _, b := range []*Benchmark{PTBLSTM().WithNoiseSeed(3), CudaConvnet(), wideBenchmark()} {
		rng := xrand.New(11)
		space := b.Space()
		cfgA, cfgB, cfgC := space.Sample(rng), space.Sample(rng), space.Sample(rng)

		var slab [2]Trial
		b.InitTrial(&slab[0], 99, cfgC.Clone())
		b.InitTrial(&slab[1], 98, cfgC.Clone())
		slab[0].Train(5)
		slab[0].SetConfig(cfgB)
		slab[1].InheritFrom(&slab[0])

		b.InitTrial(&slab[0], 4, cfgA.Clone())
		b.InitTrial(&slab[1], 17, cfgB.Clone())
		pairs := [2][2]*Trial{{b.NewTrial(4, cfgA), &slab[0]}, {b.NewTrial(17, cfgB), &slab[1]}}

		same := func(step string) {
			t.Helper()
			for k, p := range pairs {
				ref, got := p[0], p[1]
				if math.Float64bits(ref.TrueLoss()) != math.Float64bits(got.TrueLoss()) ||
					math.Float64bits(ref.Resource()) != math.Float64bits(got.Resource()) ||
					math.Float64bits(ref.CostPerUnit()) != math.Float64bits(got.CostPerUnit()) ||
					ref.Checkpoint() != got.Checkpoint() || !ref.Config().Equal(got.Config()) || ref.ID != got.ID {
					t.Fatalf("%s: after %s trial %d differs: NewTrial %+v, InitTrial %+v", b.name, step, k, ref.Checkpoint(), got.Checkpoint())
				}
			}
		}
		train := func(k int, dr float64) {
			t.Helper()
			ref, got := pairs[k][0].Train(dr), pairs[k][1].Train(dr)
			if math.Float64bits(ref) != math.Float64bits(got) {
				t.Fatalf("%s: trial %d Train(%v) observed %v, in place %v", b.name, k, dr, ref, got)
			}
		}
		same("init")
		train(0, 1)
		train(1, 3)
		train(0, 3)
		same("train")
		var cps [2][2]TrialState
		for k, p := range pairs {
			cps[k] = [2]TrialState{p[0].Checkpoint(), p[1].Checkpoint()}
		}
		train(0, 12)
		train(1, 12)
		for k, p := range pairs {
			p[0].Restore(cps[k][0])
			p[1].Restore(cps[k][1])
		}
		same("restore")
		train(0, 2)
		for i := 0; i < 2; i++ {
			pairs[1][i].InheritFrom(pairs[0][i])
			pairs[1][i].SetConfig(cfgC)
		}
		same("inherit+setconfig")
		train(1, 9)
		train(0, 9)
		for i := 0; i < 2; i++ {
			pairs[0][i].SetConfig(cfgB)
		}
		train(0, 30)
		train(1, 30)
		same("end")
	}
}

var paramsSink curve.Params

// BenchmarkParamsFor is the per-trial mapping alone, on each named
// benchmark over 4 096 configurations sampled beforehand.
func BenchmarkParamsFor(b *testing.B) {
	for _, bench := range namedBenchmarks() {
		b.Run(bench.Name(), func(b *testing.B) {
			rng := xrand.New(bench.seed ^ 0xbe7c)
			cfgs := make([]searchspace.Config, 4096)
			for i := range cfgs {
				cfgs[i] = bench.Space().Sample(rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				paramsSink = bench.ParamsFor(cfgs[i%len(cfgs)])
			}
		})
	}
}
