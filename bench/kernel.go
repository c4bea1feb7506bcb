package main

import (
	"math"
	"runtime"
	"time"
)

// The calibration kernel. This machine's speed drifts by ±15–20% for
// minutes at a time (see README.md, "Sizing"), so a chunk's wall time is
// divided by the time the same goroutine needs, right before and right
// after the chunk, for a fixed piece of work. What drifts is not one
// thing: memory-bound code, cache-resident code and pure arithmetic
// slow down by different amounts at different times, and the workloads
// differ in which they resemble. So a pass has three parts of about
// equal length: random read-modify-writes over 8 MB (larger than any
// cache here), the same over 256 KB (cache-resident), both with a
// math.Log1p per access, and a dependent chain of math.Log1p. The kernel
// allocates nothing and always does the same number of iterations.
const (
	kernelWords      = 1 << 20 // 8 MB of uint64
	kernelSmallWords = 1 << 15 // 256 KB
	kernelMemIters   = 500_000
	kernelCacheIters = 1_200_000
	kernelMathIters  = 800_000

	// RefPassS is the duration of one kernel pass on the reference
	// machine. A chunk that took wall seconds between two passes of p0
	// and p1 seconds took wall × RefPassS / mean(p0, p1) reference
	// seconds. Changing it, or the kernel, rescales every *_ref_* metric;
	// never do so in a PR that compares against earlier numbers.
	RefPassS = 0.060
)

var (
	// kernelScale divides the iteration counts: 1 except at -smoke size,
	// whose numbers mean nothing.
	kernelScale = 1
	kernelBuf   = make([]uint64, kernelWords)
	kernelSink  float64 // consumes the result so the loops cannot be elided
)

// kernelPass runs the kernel once on the calling goroutine and returns
// how long it took.
func kernelPass() time.Duration {
	start := time.Now()
	acc := kernelTouch(kernelWords, kernelMemIters/kernelScale)
	acc += kernelTouch(kernelSmallWords, kernelCacheIters/kernelScale)
	chain := 0.5
	for i := 0; i < kernelMathIters/kernelScale; i++ {
		chain = math.Log1p(chain) + 0.25
	}
	kernelSink += acc + chain
	return time.Since(start)
}

// kernelTouch does iters xorshift-indexed read-modify-writes over the
// first words of kernelBuf, with a math.Log1p of each value read.
func kernelTouch(words uint64, iters int) float64 {
	x := uint64(0x9E3779B97F4A7C15)
	acc := 0.0
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (words - 1)
		kernelBuf[j] += x
		acc += math.Log1p(float64(kernelBuf[j]&0xffff) * (1.0 / 65536))
	}
	return acc
}

// quietPass collects garbage, then runs the kernel: neither the pass nor
// the code that follows it should pay for the garbage of what came
// before.
func quietPass() time.Duration {
	runtime.GC()
	return kernelPass()
}

// refSeconds converts a wall duration bracketed by two kernel passes
// into reference seconds.
func refSeconds(wall, passBefore, passAfter time.Duration) float64 {
	mean := (passBefore.Seconds() + passAfter.Seconds()) / 2
	return wall.Seconds() * RefPassS / mean
}
