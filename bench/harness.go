package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how often an untraced run sets a workload up from
// nothing; setup_s is the median of the repetitions.
const setupReps = 3

// sample is one measured chunk with the kernel passes around it.
type sample struct {
	chunkResult
	passBefore, passAfter time.Duration
}

// seconds is the chunk's time in the workload's unit.
func (s sample) seconds(wallClock bool) float64 {
	return unitSeconds(wallClock, s.wall, s.passBefore, s.passAfter)
}

// unitSeconds is a duration in a workload's unit: reference seconds, or
// wall seconds on the wall-clock workload.
func unitSeconds(wallClock bool, wall, passBefore, passAfter time.Duration) float64 {
	if wallClock {
		return wall.Seconds()
	}
	return refSeconds(wall, passBefore, passAfter)
}

// runStats is everything one run of one workload measured.
type runStats struct {
	w         workload
	setupWall []float64 // per set-up repetition, wall seconds
	setup     []float64 // the same in the workload's unit
	chunks    []sample
	passes    []float64 // every kernel pass, seconds
	gcPause   time.Duration
	peakRSSMB float64
}

// runWorkload sets the workload up reps times, then runs measured
// chunks until `seconds` of wall time have passed (at least one). Chunk
// i uses seed base+i, so two commits do identical work. prepare is the
// workload's own or its traced twin.
func runWorkload(w workload, prepare prepareFn, seed uint64, seconds float64, smoke bool, reps int) (*runStats, error) {
	if !w.wallClock {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("out", "tmp-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	st := &runStats{w: w}
	pass := func() time.Duration {
		d := quietPass()
		st.passes = append(st.passes, d.Seconds())
		return d
	}
	kernelPass() // two discarded passes page the buffer in
	kernelPass()

	// Every segment of a set-up (input generation, each warm-up chunk) is
	// bracketed by kernel passes of its own, so that one slow pass moves
	// the sum by a fraction only.
	var chunk chunkFn
	failed := 0
	before := pass()
	for rep := 0; rep < reps; rep++ {
		var wall, total float64
		segment := func(fn func()) {
			start := time.Now()
			fn()
			d := time.Since(start)
			after := pass()
			wall += d.Seconds()
			total += unitSeconds(w.wallClock, d, before, after)
			before = after
		}
		segment(func() { chunk, err = prepare(seed, dir, smoke) })
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		for i := 0; i < w.warm; i++ {
			// Warm-up seeds stay clear of the measured ones.
			segment(func() { failed += chunk(seed + 1<<20 + uint64(i)).failed })
		}
		st.setupWall = append(st.setupWall, wall)
		st.setup = append(st.setup, total)
	}
	if failed > 0 {
		return nil, fmt.Errorf("%s: %d checks failed during warm-up", w.name, failed)
	}

	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := uint64(0); i == 0 || time.Now().Before(deadline); i++ {
		c := chunk(seed + i)
		after := pass()
		st.chunks = append(st.chunks, sample{chunkResult: c, passBefore: before, passAfter: after})
		before = after
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	st.gcPause = time.Duration(gc1.PauseTotalNs - gc0.PauseTotalNs)
	st.peakRSSMB = peakRSSMB()
	return st, nil
}

// totals sums the measured chunks.
func (st *runStats) totals() (t chunkResult) {
	for _, s := range st.chunks {
		t.jobs += s.jobs
		t.attempted += s.attempted
		t.failed += s.failed
		t.wall += s.wall
		t.cpu += s.cpu
		t.mallocs += s.mallocs
		t.bytes += s.bytes
	}
	return t
}

// jobsPerSecond is the median over measured chunks of jobs per second,
// normalised (the workload's unit) or raw (wall).
func (st *runStats) jobsPerSecond(raw bool) float64 {
	rates := make([]float64, len(st.chunks))
	for i, s := range st.chunks {
		rates[i] = float64(s.jobs) / s.seconds(raw || st.w.wallClock)
	}
	return median(rates)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median returns the middle value (mean of the middle two) and 0 for no
// values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
