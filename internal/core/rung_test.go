package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/xrand"
)

// The reference rung: four structures per rung — a top-k tracker (two
// heaps), a heap of every unpromoted entry and a hash set of recorded
// trials — rebalanced at each promotion check. It is what ashaRung
// replaced, kept as the oracle the differential tests and FuzzASHARung
// hold ashaRung to.

// topKTracker maintains the multiset of rung entries partitioned into
// the k smallest ("lower", a max-heap) and the rest ("upper", a
// min-heap), supporting O(log n) insertion and O(log n) adjustment as k
// grows. It answers "is e among the k smallest?" via the lower heap's
// root.
type topKTracker struct {
	lower entryHeap // max-heap: the k smallest entries
	upper entryHeap // min-heap: everything else
}

func newTopKTracker() *topKTracker {
	return &topKTracker{lower: entryHeap{max: true}, upper: entryHeap{max: false}}
}

// Add inserts an entry, preserving the partition property for the
// current lower size.
func (t *topKTracker) Add(e entry) {
	if low, ok := t.lower.Peek(); ok && entryLess(e, low) {
		// e belongs among the k smallest; displace the current maximum
		// of the lower heap to keep |lower| unchanged.
		displaced, _ := t.lower.Pop()
		t.lower.Push(e)
		t.upper.Push(displaced)
		return
	}
	t.upper.Push(e)
}

// Rebalance adjusts the partition so |lower| = min(k, total).
func (t *topKTracker) Rebalance(k int) {
	total := t.lower.Len() + t.upper.Len()
	if k > total {
		k = total
	}
	for t.lower.Len() < k {
		e, _ := t.upper.Pop()
		t.lower.Push(e)
	}
	for t.lower.Len() > k {
		e, _ := t.lower.Pop()
		t.upper.Push(e)
	}
}

// Threshold returns the largest entry among the k smallest (the
// promotion threshold); ok=false when the lower heap is empty.
func (t *topKTracker) Threshold() (entry, bool) { return t.lower.Peek() }

// Len returns the total number of tracked entries.
func (t *topKTracker) Len() int { return t.lower.Len() + t.upper.Len() }

type refRung struct {
	eta        int
	all        *topKTracker
	unpromoted entryHeap // min-heap of entries not yet promoted
	recorded   map[int]struct{}
}

func newRefRung(eta int) *refRung {
	return &refRung{eta: eta, all: newTopKTracker(), recorded: make(map[int]struct{})}
}

func (r *refRung) add(e entry) {
	if _, dup := r.recorded[e.trialID]; dup {
		return
	}
	r.recorded[e.trialID] = struct{}{}
	r.all.Add(e)
	r.unpromoted.Push(e)
}

// promotable returns the best unpromoted trial if it is at or below the
// ⌊n/eta⌋-th smallest entry overall.
func (r *refRung) promotable() (int, bool) {
	k := r.all.Len() / r.eta
	if k <= 0 {
		return -1, false
	}
	r.all.Rebalance(k)
	top, ok := r.unpromoted.Peek()
	if !ok {
		return -1, false
	}
	if thr, _ := r.all.Threshold(); entryLess(thr, top) {
		return -1, false
	}
	return top.trialID, true
}

func (r *refRung) markPromoted(trialID int) {
	if e, ok := r.unpromoted.Pop(); !ok || e.trialID != trialID {
		panic("reference rung: markPromoted out of order with promotable")
	}
}

func TestTopKTrackerPartition(t *testing.T) {
	tr := newTopKTracker()
	rng := xrand.New(5)
	for i := 0; i < 200; i++ {
		tr.Add(entry{trialID: i, loss: rng.Float64()})
	}
	tr.Rebalance(50)
	thr, ok := tr.Threshold()
	if !ok {
		t.Fatal("no threshold")
	}
	// Exactly 50 entries at or below the threshold.
	below := 0
	for i := range tr.lower.Len() {
		if e := *tr.lower.items.At(i + heapPad); entryLess(thr, e) {
			t.Fatalf("lower heap holds entry above threshold: %+v > %+v", e, thr)
		}
		below++
	}
	if below != 50 {
		t.Fatalf("lower heap size %d, want 50", below)
	}
	for i := range tr.upper.Len() {
		if entryLess(*tr.upper.items.At(i + heapPad), thr) {
			t.Fatalf("upper heap holds entry below threshold")
		}
	}
	// Shrinking k moves entries back.
	tr.Rebalance(10)
	if tr.lower.Len() != 10 || tr.Len() != 200 {
		t.Fatalf("rebalance(10): lower=%d total=%d", tr.lower.Len(), tr.Len())
	}
}

// rungDiff drives an ASHA and, beside it, reference rungs fed the same
// successful reports. After every step each rung must name the same
// promotable trial as its reference, and every Next must be the job the
// reference predicts: a queued retry, else the reference's promotion
// scanning from the top rung down, else a fresh trial.
type rungDiff struct {
	t        testing.TB
	a        *ASHA
	ref      []*refRung
	retry    []Job
	inflight []Job
	done     []Result
	fresh    int
}

func newRungDiff(t testing.TB, eta int) *rungDiff {
	// Four promotion rungs under the top one.
	return &rungDiff{t: t, a: newTestASHA(eta, 1, math.Pow(float64(eta), 4), 0)}
}

func (d *rungDiff) refRung(k int) *refRung {
	for len(d.ref) <= k {
		d.ref = append(d.ref, newRefRung(d.a.cfg.Eta))
	}
	return d.ref[k]
}

// expect returns the job the reference model says Next issues, and
// applies it to the model.
func (d *rungDiff) expect() Job {
	if len(d.retry) > 0 {
		job := d.retry[0]
		d.retry = d.retry[1:]
		return job
	}
	for k := min(len(d.ref), d.a.topRung) - 1; k >= 0; k-- {
		if id, ok := d.ref[k].promotable(); ok {
			d.ref[k].markPromoted(id)
			return Job{TrialID: id, Rung: k + 1}
		}
	}
	d.fresh++
	return Job{TrialID: d.fresh - 1}
}

func (d *rungDiff) next() {
	d.t.Helper()
	want := d.expect()
	got, ok := d.a.Next()
	if !ok || got.TrialID != want.TrialID || got.Rung != want.Rung {
		d.t.Fatalf("Next = trial %d rung %d (ok %v), reference trial %d rung %d", got.TrialID, got.Rung, ok, want.TrialID, want.Rung)
	}
	d.inflight = append(d.inflight, got)
	d.check()
}

// report settles in-flight job i.
func (d *rungDiff) report(i int, loss float64, failed bool) {
	d.t.Helper()
	job := d.inflight[i]
	d.inflight[i] = d.inflight[len(d.inflight)-1]
	d.inflight = d.inflight[:len(d.inflight)-1]
	res := Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: loss, Resource: job.TargetResource, Failed: failed}
	if failed {
		res.Loss = math.NaN()
		d.retry = append(d.retry, job)
	} else {
		d.refRung(job.Rung).add(entry{trialID: job.TrialID, loss: loss})
		d.done = append(d.done, res)
	}
	d.a.Report(res)
	d.check()
}

// duplicate re-delivers completed result i.
func (d *rungDiff) duplicate(i int) {
	d.t.Helper()
	res := d.done[i]
	d.refRung(res.Rung).add(entry{trialID: res.TrialID, loss: res.Loss})
	d.a.Report(res)
	d.check()
}

func (d *rungDiff) check() {
	d.t.Helper()
	for k := 0; k < max(len(d.a.rungs), len(d.ref)); k++ {
		gotID, gotOK, gotN := -1, false, 0
		if k < len(d.a.rungs) {
			gotID, gotOK = d.a.rungs[k].promotable()
			gotN = d.a.rungs[k].size()
		}
		wantID, wantOK, wantN := -1, false, 0
		if k < len(d.ref) {
			wantID, wantOK = d.ref[k].promotable()
			wantN = d.ref[k].all.Len()
		}
		if gotID != wantID || gotOK != wantOK || gotN != wantN {
			d.t.Fatalf("rung %d: promotable = (%d, %v) over %d entries, reference (%d, %v) over %d",
				k, gotID, gotOK, gotN, wantID, wantOK, wantN)
		}
	}
}

// lossFrom maps a byte to a loss that ties often and includes ±Inf, NaN
// and negative zero.
func lossFrom(b byte) float64 {
	switch b % 16 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	}
	return float64(b/16) / 8
}

// runRungOps decodes data into an eta and a stream of (op, arg) byte
// pairs and runs it through a rungDiff: Nexts, reports (some failed),
// duplicate reports, and bursts of up to 10 000 Nexts whose reports then
// all arrive with no Next between them — a paused gate, or a replay.
func runRungOps(t testing.TB, data []byte) {
	if len(data) == 0 {
		return
	}
	d := newRungDiff(t, 2+int(data[0]%4))
	for i := 1; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		pick := func(n int) int { return int(op>>3) * 257 % n }
		switch op % 8 {
		case 0, 1, 2:
			d.next()
		case 3, 4:
			if n := len(d.inflight); n > 0 {
				d.report(pick(n), lossFrom(arg), false)
			}
		case 5:
			if n := len(d.inflight); n > 0 {
				d.report(pick(n), 0, true)
			}
		case 6:
			if n := len(d.done); n > 0 {
				d.duplicate(pick(n))
			}
		case 7:
			for n := min(int(arg)*int(arg)/6, 10_000); n > 0; n-- {
				d.next()
			}
			rng := xrand.New(uint64(arg))
			for len(d.inflight) > 0 {
				d.report(rng.IntN(len(d.inflight)), lossFrom(byte(rng.IntN(256))), rng.IntN(16) == 0)
			}
		}
	}
}

// TestASHARungMatchesReference runs seeded random streams through the
// differential harness, one of them with a 10 000-report burst.
func TestASHARungMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		rng := xrand.New(seed)
		data := make([]byte, 4000)
		for i := range data {
			data[i] = byte(rng.IntN(256))
		}
		// Keep bursts rare and mostly small: one op in 64 is a burst, of
		// up to arg²/6 jobs.
		for i := 1; i+1 < len(data); i += 2 {
			if data[i]%8 == 7 && rng.IntN(8) != 0 {
				data[i]--
			}
			if data[i]%8 == 7 {
				data[i+1] %= 64
			}
		}
		runRungOps(t, data)
	}
	runRungOps(t, []byte{2, 0, 0, 7, 255, 0, 0, 0, 0, 3, 17, 11, 40})
}

func FuzzASHARung(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 11, 1, 19, 2, 0, 0, 0, 0})
	f.Add([]byte{0, 7, 30, 0, 0, 6, 0, 0, 0, 5, 0, 0, 0, 7, 20, 0, 0, 0, 0})
	f.Add([]byte{1, 7, 40, 3, 16, 3, 32, 3, 0, 3, 1, 3, 2, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runRungOps(t, data)
	})
}

// TestASHARungScales: 10^5 reports arriving with no Next between them,
// then 10^5 Nexts, stay far from quadratic.
func TestASHARungScales(t *testing.T) {
	const n = 100_000
	a := newTestASHA(4, 1, 256, 0)
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i], _ = a.Next()
	}
	rng := xrand.New(8)
	start := time.Now()
	for _, job := range jobs {
		a.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Config: job.Config, Loss: rng.Float64(), Resource: job.TargetResource})
	}
	promoted := 0
	for i := 0; i < n; i++ {
		if job, _ := a.Next(); job.Rung > 0 {
			promoted++
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second && !raceEnabled {
		t.Fatalf("%d reports and %d Nexts took %v", n, n, elapsed)
	}
	if promoted != n/4 {
		t.Fatalf("promoted %d of rung 0's %d entries, want ⌊n/4⌋ = %d", promoted, n, n/4)
	}
}
