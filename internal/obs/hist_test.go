package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistBucketBoundaries pins the bucket scheme: bucket k covers
// (2^(k-1), 2^k] ns, bucket 0 absorbs everything ≤ 1ns, and anything
// past the finite range lands in the overflow bucket.
func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, // negative clamps to zero
		{0, 0},
		{1, 0},
		{2, 1},
		{3, 2},
		{4, 2},
		{5, 3},
		{1024, 10},
		{1025, 11},
		{int64(time.Millisecond), 20},          // 1e6 ns ≤ 2^20
		{int64(time.Second), 30},               // 1e9 ns ≤ 2^30
		{1 << 39, 39},                          // last finite bucket, inclusive
		{1<<39 + 1, HistBuckets},               // first overflow value
		{math.MaxInt64, HistBuckets},           // extreme overflow
		{int64(10 * time.Minute), HistBuckets}, // 6e11 > 2^39
		{int64(9 * time.Minute), 39},           // 5.4e11 ≤ 2^39
	}
	for _, c := range cases {
		var h Histogram
		h.ObserveNanos(c.ns)
		got := -1
		for i := range h.buckets {
			if h.buckets[i].Load() == 1 {
				got = i
				break
			}
		}
		if got != c.want {
			t.Errorf("ObserveNanos(%d): landed in bucket %d, want %d", c.ns, got, c.want)
		}
		if c.ns >= 0 {
			// Each bucket's bound must actually contain its values.
			if got < HistBuckets && time.Duration(c.ns) > HistBucketBound(got) {
				t.Errorf("ObserveNanos(%d): bucket %d bound %v is below the value", c.ns, got, HistBucketBound(got))
			}
			if got > 0 && got <= HistBuckets && c.ns != 0 && time.Duration(c.ns) <= HistBucketBound(got-1) {
				t.Errorf("ObserveNanos(%d): fits bucket %d already", c.ns, got-1)
			}
		}
	}
}

func TestHistCountSumMean(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.sumNs.Load() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("zero histogram not empty: count=%d sum=%dns", h.Count(), h.sumNs.Load())
	}
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	h.Observe(-time.Second) // counts as zero
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	sum := time.Duration(h.sumNs.Load())
	if sum != 6*time.Millisecond {
		t.Fatalf("sum = %v, want 6ms", sum)
	}
	// The mean a scrape derives from the _sum and _count samples.
	if mean := sum / time.Duration(h.Count()); mean != 2*time.Millisecond {
		t.Fatalf("mean = %v, want 2ms", mean)
	}
}

// TestHistQuantile checks interpolation stays inside the containing
// bucket and is monotone in q.
func TestHistQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond) // bucket (2^19, 2^20]
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Second) // bucket (2^29, 2^30]
	}
	p50 := h.Quantile(0.5)
	if p50 <= 512*time.Microsecond || p50 > 1049*time.Microsecond {
		t.Errorf("p50 = %v, want within the ~1ms bucket", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 536870*time.Microsecond || p99 > 1074*time.Millisecond {
		t.Errorf("p99 = %v, want within the ~1s bucket", p99)
	}
	if h.Quantile(0) > h.Quantile(0.5) || h.Quantile(0.5) > h.Quantile(1) {
		t.Errorf("quantiles not monotone: q0=%v q50=%v q100=%v", h.Quantile(0), h.Quantile(0.5), h.Quantile(1))
	}
	// Out-of-range q clamps instead of panicking.
	if h.Quantile(-3) != h.Quantile(0) || h.Quantile(7) != h.Quantile(1) {
		t.Errorf("out-of-range q did not clamp")
	}
	// Overflow observations report the finite upper bound.
	var o Histogram
	o.ObserveNanos(math.MaxInt64)
	if got := o.Quantile(0.5); got != time.Duration(1)<<39 {
		t.Errorf("overflow quantile = %v, want %v", got, time.Duration(1)<<39)
	}
}

// TestHistProm round-trips the Prometheus exposition through ParseProm
// and checks the cumulative-le invariants.
func TestHistProm(t *testing.T) {
	var h Histogram
	h.Observe(time.Microsecond)
	h.Observe(time.Millisecond)
	h.Observe(600 * time.Second) // overflow
	var b strings.Builder
	PromHeader(&b, "t_seconds", "histogram", "test family")
	h.WriteProm(&b, "t_seconds", []Label{{Name: "exp", Value: "e1"}})
	m := ParseProm(b.String())
	if got := m[`t_seconds_count{exp="e1"}`]; got != 3 {
		t.Fatalf("count sample = %v, want 3", got)
	}
	wantSum := (float64(time.Microsecond) + float64(time.Millisecond) + float64(600*time.Second)) / 1e9
	if got := m[`t_seconds_sum{exp="e1"}`]; math.Abs(got-wantSum) > 1e-9*wantSum {
		t.Fatalf("sum sample = %v, want %v", got, wantSum)
	}
	if got := m[`t_seconds_bucket{exp="e1",le="+Inf"}`]; got != 3 {
		t.Fatalf("+Inf bucket = %v, want 3", got)
	}
	// Cumulative buckets are non-decreasing in le and the largest
	// finite bucket excludes only the overflow observation.
	var prev float64
	var finiteMax float64
	nBuckets := 0
	for i := 0; i <= HistBuckets; i++ {
		le := "+Inf"
		if i < HistBuckets {
			le = formatPromValue(float64(int64(1)<<uint(i)) / 1e9)
		}
		v, ok := m[`t_seconds_bucket{exp="e1",le="`+le+`"}`]
		if !ok {
			t.Fatalf("missing bucket le=%s", le)
		}
		if v < prev {
			t.Fatalf("bucket le=%s: cumulative count %v < previous %v", le, v, prev)
		}
		prev = v
		if i == HistBuckets-1 {
			finiteMax = v
		}
		nBuckets++
	}
	if nBuckets != HistBuckets+1 {
		t.Fatalf("exported %d buckets, want %d", nBuckets, HistBuckets+1)
	}
	if finiteMax != 2 {
		t.Fatalf("largest finite bucket = %v, want 2 (overflow excluded)", finiteMax)
	}
}

// TestHistConcurrent hammers one histogram from many goroutines; run
// under -race this doubles as the data-race check the CI matrix pins.
func TestHistConcurrent(t *testing.T) {
	const writers = 8
	const perWriter = 5000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.ObserveNanos(int64(w*perWriter + i))
				if i%64 == 0 { // concurrent readers
					h.Quantile(0.95)
					h.Count()
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != writers*perWriter {
		t.Fatalf("count = %d, want %d", h.Count(), writers*perWriter)
	}
	var inBuckets int64
	for i := range h.buckets {
		inBuckets += h.buckets[i].Load()
	}
	if inBuckets != writers*perWriter {
		t.Fatalf("bucket total = %d, want %d", inBuckets, writers*perWriter)
	}
}

// TestHistObserveAllocs pins the zero-allocation hot path.
func TestHistObserveAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Millisecond) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", n)
	}
}
