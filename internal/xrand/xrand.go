// Package xrand provides deterministic, splittable random number
// generation for reproducible experiments.
//
// Every stochastic component in this repository draws from an *xrand.RNG
// seeded explicitly by the caller. RNGs can be split by name so that
// adding a consumer of randomness in one module does not perturb the
// stream seen by another (the classic "seed hygiene" problem in
// simulation harnesses).
package xrand

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random number generator. It wraps math/rand/v2's
// PCG generator and adds the distributions used across the repository.
// The PCG state and the Rand wrapper are held by value: an RNG is one
// allocation, or none when SplitIndexInto initialises one inside a larger
// record (the simulator's per-trial noise RNG). It must therefore not be
// copied (its Rand points at the embedded PCG); use Split for children.
type RNG struct {
	pcg rand.PCG
	src rand.Rand
	// seed material retained so the RNG can be split by name.
	s1, s2 uint64
}

// New returns an RNG seeded from a single 64-bit seed.
func New(seed uint64) *RNG {
	return newFrom(seed, 0x9e3779b97f4a7c15)
}

func newFrom(s1, s2 uint64) *RNG {
	r := new(RNG)
	r.seed(s1, s2)
	return r
}

// seed (re)initialises r in place at the start of the (s1, s2) stream.
func (r *RNG) seed(s1, s2 uint64) {
	r.s1, r.s2 = s1, s2
	r.pcg.Seed(s1, s2)
	r.src = *rand.New(&r.pcg)
}

// FNV64 is an incremental FNV-1a 64 hash. It produces byte-for-byte the
// same digests as hash/fnv with none of the hash.Hash allocation —
// several of its call sites (RNG splits, per-trial config hashing) sit
// on the simulator's hot path. The zero value is NOT ready for use;
// start from NewFNV64.
type FNV64 uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewFNV64 returns the FNV-1a offset basis.
func NewFNV64() FNV64 { return fnvOffset64 }

// String folds the bytes of s into the hash.
func (h *FNV64) String(s string) {
	hv := uint64(*h)
	for i := 0; i < len(s); i++ {
		hv ^= uint64(s[i])
		hv *= fnvPrime64
	}
	*h = FNV64(hv)
}

// Uint64 folds v into the hash in little-endian byte order (matching
// hash/fnv fed the same bytes via binary.LittleEndian).
func (h *FNV64) Uint64(v uint64) {
	hv := uint64(*h)
	for b := 0; b < 8; b++ {
		hv ^= v >> (8 * b) & 0xff
		hv *= fnvPrime64
	}
	*h = FNV64(hv)
}

// Sum returns the current digest.
func (h FNV64) Sum() uint64 { return uint64(h) }

// hashName is FNV-1a 64 over the name alone.
func hashName(name string) uint64 {
	h := NewFNV64()
	h.String(name)
	return h.Sum()
}

// Split derives an independent RNG from this one, keyed by name.
// Splitting is a pure function of (seed material, name): two RNGs with the
// same seed always produce identical children for the same name, and the
// parent's stream is not advanced.
func (r *RNG) Split(name string) *RNG {
	hv := hashName(name)
	return newFrom(r.s1^hv, r.s2^Mix(hv))
}

// SplitIndex derives an independent RNG keyed by an integer index, for
// per-trial and per-configuration streams. The seed arithmetic is
// identical to Split(name) followed by the index mix, without
// materializing the intermediate RNG.
func (r *RNG) SplitIndex(name string, i int) *RNG {
	dst := new(RNG)
	r.SplitIndexInto(dst, name, i)
	return dst
}

// SplitIndexInto is SplitIndex initialising dst in place: dst restarts
// at the head of the child stream, and nothing is allocated.
func (r *RNG) SplitIndexInto(dst *RNG, name string, i int) {
	hv := hashName(name)
	s1, s2 := r.s1^hv, r.s2^Mix(hv)
	dst.seed(s1^Mix(uint64(i)+1), s2^Mix(uint64(i)*0x9e3779b9+7))
}

// UnmarshalBinary moves the generator to a position AppendBinary wrote.
func (r *RNG) UnmarshalBinary(b []byte) error { return r.pcg.UnmarshalBinary(b) }

// Mix is the SplitMix64 finalizer: every output bit depends on every
// input bit. It decorrelates nearby integer keys, and turns a hash with
// weak high bits (FNV-1a over short, similar strings) into one whose
// comparisons are uniform.
func Mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Normal returns a normal sample with the given mean and standard
// deviation. sd must be >= 0.
func (r *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*r.src.NormFloat64()
}

// Uniform returns a uniform sample in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// LogUniform returns a sample whose logarithm is uniform on
// [log lo, log hi]. Both bounds must be positive.
func (r *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi <= 0 {
		panic("xrand: LogUniform requires positive bounds")
	}
	return math.Exp(r.Uniform(math.Log(lo), math.Log(hi)))
}

// UniformInt returns a uniform integer in [lo, hi] inclusive.
func (r *RNG) UniformInt(lo, hi int) int {
	if hi < lo {
		panic("xrand: UniformInt requires hi >= lo")
	}
	return lo + r.src.IntN(hi-lo+1)
}

// HalfNormalAbs returns |z| for z ~ N(0, sd). This is the straggler
// multiplier distribution used in Appendix A.1 of the paper, where job
// durations are scaled by (1 + |z|).
func (r *RNG) HalfNormalAbs(sd float64) float64 {
	return math.Abs(r.src.NormFloat64()) * sd
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.src.Float64() < p
}

// Exponential returns an exponential sample with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return r.src.ExpFloat64() * mean
}
