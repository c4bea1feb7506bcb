package workload

import (
	"math"
	"slices"
	"sync"

	"repro/internal/searchspace"
	"repro/internal/xrand"
)

// The benchmarks below transcribe the search spaces the paper evaluates
// on (Tables 1-3, the cuda-convnet space of Li et al. 2017, and the SVM
// space of Klein et al. 2017) and calibrate the surrogate response
// surfaces so loss ranges, the density of good configurations, and
// training-time variability match the corresponding figures. Calibration
// constants are checked by tests in calibration_test.go.

// Fixed seeds: each benchmark is a fixed synthetic "dataset"; the
// response surface never changes across experiment repetitions.
const (
	seedCudaConvnet     = 0xA5A5_0001
	seedSmallCNNCIFAR   = 0xA5A5_0002
	seedSmallCNNSVHN    = 0xA5A5_0003
	seedPTBLSTM         = 0xA5A5_0004
	seedDropConnectLSTM = 0xA5A5_0005
	seedSVMVehicle      = 0xA5A5_0006
	seedSVMMNIST        = 0xA5A5_0007
)

// WithNoiseSeed returns a view of the benchmark whose observation-noise
// and trial-level randomness derive from the given run index, while the
// response surface (the synthetic "dataset") is shared. Experiment
// repetitions use distinct run indices.
func (b *Benchmark) WithNoiseSeed(run uint64) *Benchmark {
	nb := *b
	nb.root = xrand.New(b.seed ^ (0x517c_c1b7_2722_0a95 * (run + 1)))
	return &nb
}

// CudaConvnetSpace returns the 8-dimensional cuda-convnet search space
// from Li et al. 2017 used by benchmark 1 (Sections 4.1, 4.2, A.2).
func CudaConvnetSpace() *searchspace.Space {
	return searchspace.New(
		searchspace.Param{Name: "learning rate", Type: searchspace.LogUniform, Lo: 5e-5, Hi: 5},
		searchspace.Param{Name: "conv1 l2 penalty", Type: searchspace.LogUniform, Lo: 5e-5, Hi: 5},
		searchspace.Param{Name: "conv2 l2 penalty", Type: searchspace.LogUniform, Lo: 5e-5, Hi: 5},
		searchspace.Param{Name: "conv3 l2 penalty", Type: searchspace.LogUniform, Lo: 5e-5, Hi: 5},
		searchspace.Param{Name: "fc4 l2 penalty", Type: searchspace.LogUniform, Lo: 5e-3, Hi: 500},
		searchspace.Param{Name: "lr reductions", Type: searchspace.Choice, Choices: []float64{0, 1, 2, 3}},
		searchspace.Param{Name: "norm scale", Type: searchspace.LogUniform, Lo: 5e-6, Hi: 5},
		searchspace.Param{Name: "norm power", Type: searchspace.Uniform, Lo: 0.01, Hi: 3},
	)
}

// CudaConvnet is benchmark 1: tuning the cuda-convnet CNN on CIFAR-10.
// R = 30000 SGD iterations; time(R) ~= 40 minutes (Section 4.2 reports
// ASHA evaluating >1000 configurations in just over 40 minutes on 25
// workers, roughly one time(R)).
func CudaConvnet() *Benchmark {
	return NewBenchmark("cifar10-cuda-convnet", CudaConvnetSpace(), 30000, 40, seedCudaConvnet, Calibration{
		InitialLoss: 0.90,
		BestLoss:    0.17,
		WorstLoss:   0.90,
		Hardness:    2.0,
		RateLo:      6,
		RateHi:      18,
		RateCouple:  0.5,
		NoiseSD:     0.004,
		Plasticity:  0.04,
	})
}

// SmallCNNSpace returns the Table 1 search space for the small CNN
// architecture tuning task.
func SmallCNNSpace() *searchspace.Space {
	return searchspace.New(
		searchspace.Param{Name: "batch size", Type: searchspace.Choice, Choices: []float64{64, 128, 256, 512}},
		searchspace.Param{Name: "# of layers", Type: searchspace.Choice, Choices: []float64{2, 3, 4}},
		searchspace.Param{Name: "# of filters", Type: searchspace.Choice, Choices: []float64{16, 32, 48, 64}},
		searchspace.Param{Name: "weight init std 1", Type: searchspace.LogUniform, Lo: 1e-4, Hi: 1e-1},
		searchspace.Param{Name: "weight init std 2", Type: searchspace.LogUniform, Lo: 1e-3, Hi: 1},
		searchspace.Param{Name: "weight init std 3", Type: searchspace.LogUniform, Lo: 1e-3, Hi: 1},
		searchspace.Param{Name: "l2 penalty 1", Type: searchspace.LogUniform, Lo: 1e-5, Hi: 1},
		searchspace.Param{Name: "l2 penalty 2", Type: searchspace.LogUniform, Lo: 1e-5, Hi: 1},
		searchspace.Param{Name: "l2 penalty 3", Type: searchspace.LogUniform, Lo: 1e-3, Hi: 1e2},
		searchspace.Param{Name: "learning rate", Type: searchspace.LogUniform, Lo: 1e-5, Hi: 1e1},
	)
}

// ArchParams lists the Table 1 hyperparameters that change the network
// architecture; PBT must freeze these during exploration (Appendix A.3).
func ArchParams() []string {
	return []string{"batch size", "# of layers", "# of filters"}
}

// smallCNNCost models per-iteration compute: deeper and wider networks
// with larger batches cost more per SGD iteration. The spread is
// calibrated to Section 4.2's report for benchmark 2: mean time(R) of
// 30 minutes with a standard deviation of 27 minutes.
func smallCNNCost(space *searchspace.Space) func(cfg searchspace.Config) float64 {
	layers := tabulated(space, "# of layers", func(l float64) float64 { return l / 3 })
	filters := tabulated(space, "# of filters", func(f float64) float64 { return math.Pow(f/40, 1.6) })
	batch := tabulated(space, "batch size", func(b float64) float64 { return math.Pow(b/256, 0.85) })
	return func(cfg searchspace.Config) float64 { return layers(cfg) * filters(cfg) * batch(cfg) }
}

func smallCNN(name string, seed uint64, best, worst, hardness float64) *Benchmark {
	space := SmallCNNSpace()
	return NewBenchmark(name, space, 30000, 30, seed, Calibration{
		InitialLoss: 0.90,
		BestLoss:    best,
		WorstLoss:   worst,
		Hardness:    hardness,
		RateLo:      6,
		RateHi:      18,
		RateCouple:  0.5,
		NoiseSD:     0.004,
		Plasticity:  0.004,
		CostSpread:  normalizeCost(space, seed, smallCNNCost(space)),
	})
}

// SmallCNNCIFAR is benchmark 2: the small CNN architecture tuning task on
// CIFAR-10 (Table 1 space), with high training-time variance.
func SmallCNNCIFAR() *Benchmark {
	return smallCNN("cifar10-small-cnn", seedSmallCNNCIFAR, 0.188, 0.90, 1.9)
}

// SmallCNNSVHN is the same architecture tuning task on SVHN, used in the
// Fabolas comparison (Appendix A.2, Figure 9).
func SmallCNNSVHN() *Benchmark {
	return smallCNN("svhn-small-cnn", seedSmallCNNSVHN, 0.022, 0.90, 1.35)
}

// PTBLSTMSpace returns the Table 2 search space for the PTB LSTM task.
func PTBLSTMSpace() *searchspace.Space {
	return searchspace.New(
		searchspace.Param{Name: "batch size", Type: searchspace.IntUniform, Lo: 10, Hi: 80},
		searchspace.Param{Name: "# of time steps", Type: searchspace.IntUniform, Lo: 10, Hi: 80},
		searchspace.Param{Name: "# of hidden nodes", Type: searchspace.IntUniform, Lo: 200, Hi: 1500},
		searchspace.Param{Name: "learning rate", Type: searchspace.LogUniform, Lo: 0.01, Hi: 100},
		searchspace.Param{Name: "decay rate", Type: searchspace.Uniform, Lo: 0.01, Hi: 0.99},
		searchspace.Param{Name: "decay epochs", Type: searchspace.IntUniform, Lo: 1, Hi: 10},
		searchspace.Param{Name: "clip gradients", Type: searchspace.Uniform, Lo: 1, Hi: 10},
		searchspace.Param{Name: "dropout probability", Type: searchspace.Uniform, Lo: 0.1, Hi: 1},
		searchspace.Param{Name: "weight init range", Type: searchspace.LogUniform, Lo: 0.001, Hi: 1},
	)
}

// ptbDiverges marks unstable configurations: large learning rates with
// weak gradient clipping blow up, producing the orders-of-magnitude
// perplexities Section 4.3 reports as hampering model-based methods.
func ptbDiverges(space *searchspace.Space) func(cfg searchspace.Config) bool {
	iLR := space.IndexOf("learning rate")
	iClip := space.IndexOf("clip gradients")
	return func(cfg searchspace.Config) bool {
		// learning rate in log [0.01, 100]: > ~10 is the unstable regime.
		// clip gradients in [1, 10]: < 4 fails to contain it.
		return cfg.At(iLR) > 10 && cfg.At(iClip) < 4
	}
}

func ptbCost(space *searchspace.Space) func(cfg searchspace.Config) float64 {
	hidden := tabulated(space, "# of hidden nodes", func(h float64) float64 { return math.Pow(h/850, 1.3) })
	batch := tabulated(space, "batch size", func(b float64) float64 { return math.Pow(45/b, 0.25) })
	return func(cfg searchspace.Config) float64 { return hidden(cfg) * batch(cfg) }
}

// PTBLSTM is the Section 4.3 large-scale benchmark: a one-layer LSTM on
// Penn Treebank (Table 2 space). The loss metric is perplexity. Resource
// is measured in units of R/64 (the paper sets r = R/64 with eta = 4);
// time is measured in units of time(R), so MeanTimeR = 1.
func PTBLSTM() *Benchmark {
	space := PTBLSTMSpace()
	return NewBenchmark("ptb-lstm", space, 64, 1, seedPTBLSTM, Calibration{
		InitialLoss:  1000,
		BestLoss:     75.8,
		WorstLoss:    350,
		Hardness:     2.0,
		RateLo:       6,
		RateHi:       14,
		RateCouple:   0.75,
		NoiseSD:      0.3,
		Idiosyncrasy: 0.6,
		CostSpread:   normalizeCost(space, seedPTBLSTM, ptbCost(space)),
		// Better configurations are bigger, slower models: mean 1 over
		// u ~ U(0,1), rising to ~1.9x for the best configurations.
		CostQuality:  func(u float64) float64 { return 0.55 + 1.35*u*u },
		Diverges:     ptbDiverges(space),
		DivergeLevel: 50000,
	})
}

// DropConnectSpace returns the Table 3 search space for the modern
// DropConnect LSTM task (Merity et al. 2018).
func DropConnectSpace() *searchspace.Space {
	return searchspace.New(
		searchspace.Param{Name: "learning rate", Type: searchspace.LogUniform, Lo: 10, Hi: 100},
		searchspace.Param{Name: "dropout (rnn)", Type: searchspace.Uniform, Lo: 0.15, Hi: 0.35},
		searchspace.Param{Name: "dropout (input)", Type: searchspace.Uniform, Lo: 0.3, Hi: 0.5},
		searchspace.Param{Name: "dropout (embedding)", Type: searchspace.Uniform, Lo: 0.05, Hi: 0.2},
		searchspace.Param{Name: "dropout (output)", Type: searchspace.Uniform, Lo: 0.3, Hi: 0.5},
		searchspace.Param{Name: "dropout (dropconnect)", Type: searchspace.Uniform, Lo: 0.4, Hi: 0.6},
		searchspace.Param{Name: "weight decay", Type: searchspace.LogUniform, Lo: 0.5e-6, Hi: 2e-6},
		searchspace.Param{Name: "batch size", Type: searchspace.Choice, Choices: []float64{15, 20, 25}},
		searchspace.Param{Name: "time steps", Type: searchspace.Choice, Choices: []float64{65, 70, 75}},
	)
}

func dropConnectCost(space *searchspace.Space) func(cfg searchspace.Config) float64 {
	batch := tabulated(space, "batch size", func(b float64) float64 { return math.Pow(20/b, 0.5) })
	steps := tabulated(space, "time steps", func(ts float64) float64 { return math.Pow(ts/70, 0.3) })
	return func(cfg searchspace.Config) float64 { return batch(cfg) * steps(cfg) }
}

// tabulated is one factor of a built-in cost: fn of the named parameter's
// value, read from a table of fn at the parameter's levels (levelValues)
// when the value has a level's bits. The index is resolved once, so the
// per-job cost stays allocation- and hash-free; an off-level value
// (non-integer, out of range, PBT-perturbed) computes fn.
func tabulated(space *searchspace.Space, name string, fn func(float64) float64) func(searchspace.Config) float64 {
	i := space.IndexOf(name)
	p := space.Params()[i]
	levels := levelValues(p)
	f := make([]float64, len(levels))
	for k, v := range levels {
		f[k] = fn(v)
	}
	ints := p.Type == searchspace.IntUniform && len(levels) > 0 // levels[k] is levels[0]+k
	return func(cfg searchspace.Config) float64 {
		v, k := cfg.At(i), -1
		if !ints {
			k = slices.Index(levels, v)
		} else if d := v - levels[0]; d >= 0 && d < float64(len(levels)) {
			k = int(d)
		}
		if k >= 0 && math.Float64bits(levels[k]) == math.Float64bits(v) {
			return f[k]
		}
		return fn(v)
	}
}

// DropConnectLSTM is the Section 4.3.1 benchmark: tuning the
// near-state-of-the-art DropConnect LSTM (Table 3 space) with 16 workers.
// Resource is epochs (R = 256, r = 1); the loss metric is validation
// perplexity; time is minutes with time(R) ~= 700 (Figure 6 spans 1400
// minutes ~= 2 x time(R)).
func DropConnectLSTM() *Benchmark {
	space := DropConnectSpace()
	return NewBenchmark("ptb-dropconnect-lstm", space, 256, 700, seedDropConnectLSTM, Calibration{
		InitialLoss: 300,
		BestLoss:    60.0,
		WorstLoss:   72,
		Hardness:    1.5,
		RateLo:      12,
		RateHi:      20,
		RateCouple:  0.5,
		NoiseSD:     0.25,
		Plasticity:  0.006,
		CostSpread:  normalizeCost(space, seedDropConnectLSTM, dropConnectCost(space)),
	})
}

// SVMSpace returns the 2-dimensional RBF-SVM space of Klein et al. 2017
// (regularization C and kernel width gamma, both e^[-10, 10]).
func SVMSpace() *searchspace.Space {
	return searchspace.New(
		searchspace.Param{Name: "C", Type: searchspace.LogUniform, Lo: math.Exp(-10), Hi: math.Exp(10)},
		searchspace.Param{Name: "gamma", Type: searchspace.LogUniform, Lo: math.Exp(-10), Hi: math.Exp(10)},
	)
}

// SVMVehicle is the Appendix A.2 SVM task on the vehicle dataset.
// Resource is the number of training datapoints.
func SVMVehicle() *Benchmark {
	return NewBenchmark("svm-vehicle", SVMSpace(), 1024, 60, seedSVMVehicle, Calibration{
		InitialLoss: 0.75,
		BestLoss:    0.105,
		WorstLoss:   0.75,
		Hardness:    0.8,
		RateLo:      6,
		RateHi:      15,
		RateCouple:  0.5,
		NoiseSD:     0.008,
	})
}

// SVMMNIST is the Appendix A.2 SVM task on MNIST. Resource is the number
// of training datapoints.
func SVMMNIST() *Benchmark {
	return NewBenchmark("svm-mnist", SVMSpace(), 4096, 200, seedSVMMNIST, Calibration{
		InitialLoss: 0.90,
		BestLoss:    0.014,
		WorstLoss:   0.70,
		Hardness:    0.85,
		RateLo:      6,
		RateHi:      15,
		RateCouple:  0.5,
		NoiseSD:     0.004,
	})
}

// costMeanCache memoizes normalizeCost's Monte-Carlo mean. The mean
// depends on the seed AND the (space, cost function) pair, so the key
// includes the space fingerprint: two call sites reusing a seed with
// different spaces must not alias. (The raw function itself is not
// hashable; within one space+seed the benchmarks pair it uniquely.)
var costMeanCache sync.Map // costMeanKey -> float64

type costMeanKey struct {
	seed uint64
	fp   uint64
}

// normalizeCost wraps a raw cost-multiplier function so its mean over the
// search space is 1, by Monte-Carlo with a fixed seed (deterministic).
func normalizeCost(space *searchspace.Space, seed uint64, raw func(searchspace.Config) float64) func(searchspace.Config) float64 {
	key := costMeanKey{seed: seed, fp: spaceFingerprint(space)}
	if cached, ok := costMeanCache.Load(key); ok {
		mean := cached.(float64)
		return func(cfg searchspace.Config) float64 { return raw(cfg) / mean }
	}
	rng := xrand.New(seed ^ 0xC057_0000_0000_0001)
	const samples = 4096
	total := 0.0
	for i := 0; i < samples; i++ {
		total += raw(space.Sample(rng))
	}
	mean := total / samples
	costMeanCache.Store(key, mean)
	return func(cfg searchspace.Config) float64 { return raw(cfg) / mean }
}
