package obs

import (
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of finite histogram buckets. Bucket k
// covers the duration range (2^(k-1), 2^k] nanoseconds (bucket 0 is
// [0ns, 1ns]), so the finite range tops out at 2^39 ns ≈ 550 s; any
// longer observation lands in the +Inf overflow bucket. Power-of-two
// bounds keep indexing branch-free — a single bits.Len64 — which is
// what lets Observe sit on the lease/settle hot paths.
const HistBuckets = 40

// Histogram is a lock-free log-bucketed duration histogram. All
// methods are safe for concurrent use; Observe performs three atomic
// adds and no allocation. The zero value is ready to use.
//
// Readers (Quantile, WriteProm) see a possibly-torn snapshot while
// writers are active — bucket sums and the total count can disagree
// transiently — which Prometheus-style cumulative export tolerates.
// At quiescence all views are exact.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [HistBuckets + 1]atomic.Int64
}

// histIndex maps a nanosecond duration to its bucket index.
func histIndex(ns int64) int {
	if ns <= 1 {
		return 0
	}
	idx := bits.Len64(uint64(ns - 1))
	if idx > HistBuckets {
		return HistBuckets
	}
	return idx
}

// HistBucketBound returns the inclusive upper bound of bucket i, or
// the maximum duration for the overflow bucket.
func HistBucketBound(i int) time.Duration {
	if i >= HistBuckets {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(1) << uint(i)
}

// Observe records one duration. Negative durations (which a correct
// monotonic-clock delta never produces, but a defensive caller may
// pass) count as zero.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one duration given in nanoseconds.
func (h *Histogram) ObserveNanos(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[histIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns an estimate of the q-th quantile (0 ≤ q ≤ 1),
// linearly interpolated within the containing bucket. Observations in
// the overflow bucket report the finite range's upper bound. Returns 0
// before any observation.
func (h *Histogram) Quantile(q float64) time.Duration {
	var b [HistBuckets + 1]int64
	var total int64
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		total += b[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range b {
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			var lo int64
			if i > 0 {
				lo = int64(1) << uint(i-1)
			}
			if i >= HistBuckets {
				return time.Duration(lo)
			}
			hi := int64(1) << uint(i)
			frac := float64(rank-cum) / float64(n)
			return time.Duration(lo) + time.Duration(frac*float64(hi-lo))
		}
		cum += n
	}
	return HistBucketBound(HistBuckets - 1)
}

// WriteProm writes the histogram as one Prometheus sample set —
// cumulative `le` buckets in seconds plus _sum and _count — under the
// given family name and extra labels. The caller writes the family's
// PromHeader (type "histogram") once before the first WriteProm of
// that family.
func (h *Histogram) WriteProm(w io.Writer, name string, labels []Label) {
	scratch := make([]Label, 0, len(labels)+1)
	scratch = append(scratch, labels...)
	var cum int64
	for i := 0; i <= HistBuckets; i++ {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < HistBuckets {
			le = formatPromValue(float64(int64(1)<<uint(i)) / 1e9)
		}
		PromSample(w, name+"_bucket", append(scratch, Label{Name: "le", Value: le}), float64(cum))
	}
	PromSample(w, name+"_sum", labels, float64(h.sumNs.Load())/1e9)
	PromSample(w, name+"_count", labels, float64(h.count.Load()))
}
