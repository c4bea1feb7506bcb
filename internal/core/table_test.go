package core

import (
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/wire"
	"repro/internal/xrand"
)

// Entries of the sizes the tables hold: a bitset word or a resource, a
// rung entry, a trial record, and a simulated trial (cluster.simTrial).
type (
	entry8   uint64
	entry16  [2]uint64
	entry32  [4]uint64
	entry232 [29]uint64
)

// tableSizes are the lengths the workloads' tables reach, and the
// segment edges around 64.
var tableSizes = []int{1, 63, 64, 65, 750, 9000, 11250, 54000}

// growTo is the doubling growth every per-trial table used before Table.
func growTo[T any](s []T, n int) []T {
	if n > cap(s) {
		s = slices.Grow(s, max(n, 2*len(s))-len(s))
	}
	return append(s, make([]T, n-len(s))...)
}

// slabTable is the other layout Table replaced, a pointer index over
// records cut from fixed slabs; 141 232-byte records fill a 32 KB slab.
type slabTable[T any] struct {
	byID []*T
	slab []T
}

func (s *slabTable[T]) record(id int) *T {
	if id >= len(s.byID) {
		s.byID = growTo(s.byID, id+1)
	}
	if s.byID[id] == nil {
		if len(s.slab) == 0 {
			s.slab = make([]T, 141)
		}
		s.byID[id], s.slab = &s.slab[0], s.slab[1:]
	}
	return s.byID[id]
}

// allocBytes returns the fewest bytes fn allocated over three runs.
func allocBytes(fn func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func TestTablePointersStayPut(t *testing.T) {
	var tab Table[entry16]
	type pin struct {
		i int
		p *entry16
	}
	var pins []pin
	for i := 0; i < 1_000_000; i++ {
		first := i == tab.c
		tab.Append(entry16{uint64(i), ^uint64(i)})
		if first || i == 0 || i == tab.c-1 {
			pins = append(pins, pin{i, tab.At(i)})
		}
	}
	if len(pins) < 2*(len(tab.segs)+1)-1 {
		t.Fatalf("%d pins over %d segments", len(pins), len(tab.segs)+1)
	}
	for _, p := range pins {
		if p.p != tab.At(p.i) || *p.p != (entry16{uint64(p.i), ^uint64(p.i)}) {
			t.Fatalf("entry %d moved or changed after the table grew to %d", p.i, tab.Len())
		}
	}
	// A restored run stays put too.
	var r Table[entry8]
	xs := r.Restore(100)
	r.Grow(100_000)
	if &xs[0] != r.At(0) || &xs[99] != r.At(99) {
		t.Fatal("a restored run moved when the table grew")
	}
}

// allocsNoMoreThan checks that growing a table of T to each size an
// entry at a time allocates no more objects than old does.
func allocsNoMoreThan[T any](t *testing.T, old func(n int)) {
	for _, n := range tableSizes {
		got := testing.AllocsPerRun(2, func() {
			var tab Table[T]
			for i := 0; i < n; i++ {
				tab.Grow(i + 1)
			}
		})
		if want := testing.AllocsPerRun(2, func() { old(n) }); got > want {
			t.Errorf("%d-byte entries, %d of them: %v allocations, the layout it replaced %v", unsafe.Sizeof(*new(T)), n, got, want)
		}
	}
}

func growOld[T any](n int) {
	var s []T
	for i := 0; i < n; i++ {
		s = growTo(s, i+1)
	}
}

func TestTableAllocatesNoMoreObjects(t *testing.T) {
	allocsNoMoreThan[entry8](t, growOld[entry8])
	allocsNoMoreThan[entry16](t, growOld[entry16])
	allocsNoMoreThan[entry32](t, growOld[entry32])
	allocsNoMoreThan[entry232](t, func(n int) {
		var s slabTable[entry232]
		for i := 0; i < n; i++ {
			s.record(i)
		}
	})
}

// tableBytesWithin checks that a table of T grown to each size holds at
// most 1.5 times its entries and one page.
func tableBytesWithin[T any](t *testing.T) {
	size := unsafe.Sizeof(*new(T))
	for _, n := range tableSizes {
		got := allocBytes(func() {
			var tab Table[T]
			for i := 0; i < n; i++ {
				tab.Grow(i + 1)
			}
		})
		if live := float64(uintptr(n) * size); float64(got) > 1.5*live+tablePage {
			t.Errorf("%d-byte entries, %d of them: %d bytes allocated for %.0f live", size, n, got, live)
		}
	}
}

func TestTableBytesWithinHalfAgainAndAPage(t *testing.T) {
	tableBytesWithin[entry8](t)
	tableBytesWithin[entry16](t)
	tableBytesWithin[entry32](t)
	tableBytesWithin[entry232](t)
}

func TestTableRestoreIsExact(t *testing.T) {
	for _, n := range tableSizes {
		var tab Table[entry32]
		if allocs := testing.AllocsPerRun(2, func() { tab.Restore(n) }); allocs != 1 {
			t.Fatalf("restoring %d entries: %v allocations, want 1", n, allocs)
		}
		xs := tab.Restore(n)
		if len(xs) != n || cap(xs) != n || tab.Len() != n || tab.c != n {
			t.Fatalf("restoring %d entries: %d entries of %d allocated", n, len(xs), cap(xs))
		}
		tab.Grow(n + 1)
		if tab.At(0) != &xs[0] || tab.c != n+64 {
			t.Fatalf("growing past %d restored entries copied them or allocated %d", n, tab.c-n)
		}
	}
	var tab Table[entry32]
	if tab.Restore(0) != nil || testing.AllocsPerRun(2, func() { tab.Restore(0) }) != 0 {
		t.Fatal("restoring no entries allocated")
	}
}

func TestTableSpanStaysInOneSegment(t *testing.T) {
	var tab Table[entry16]
	tab.Grow(200)
	for i := 0; i+4 <= 200; i += 4 {
		if s := tab.Span(i, 4); &s[0] != tab.At(i) || &s[3] != tab.At(i+3) {
			t.Fatalf("span at %d is not the table's entries", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a span across a segment edge did not panic")
		}
	}()
	tab.Span(62, 4)
}

// TestHeapAfterRestoreKeepsOrder restores heaps whose length leaves the
// sibling groups pushed after them off a segment edge unless the
// restore aligns them, and holds them to a heap that was never restored.
func TestHeapAfterRestoreKeepsOrder(t *testing.T) {
	for _, n := range []int{0, 1, 61, 62, 63, 64, 65, 200} {
		for _, isMax := range []bool{false, true} {
			rng := xrand.New(uint64(n))
			live := entryHeap{max: isMax}
			for i := 0; i < n; i++ {
				live.Push(entry{trialID: i, loss: rng.Float64()})
			}
			restored := entryHeap{max: isMax}
			r := wire.NewReader(appendTable(nil, &live.items, heapPad, appendEntry))
			restored.restore(r, func() entry { return entry{trialID: r.Int(), loss: r.Float64()} })
			if r.Err() != nil {
				t.Fatal(r.Err())
			}
			for i := n; i < n+3000; i++ {
				e := entry{trialID: i, loss: rng.Float64()}
				live.Push(e)
				restored.Push(e)
				if i%7 == 0 {
					a, _ := live.Pop()
					b, _ := restored.Pop()
					if a != b {
						t.Fatalf("n=%d max=%v: popped %+v from the restored heap, %+v from the live one", n, isMax, b, a)
					}
				}
			}
			for live.Len() > 0 {
				a, _ := live.Pop()
				if b, _ := restored.Pop(); a != b {
					t.Fatalf("n=%d max=%v: popped %+v from the restored heap, %+v from the live one", n, isMax, b, a)
				}
			}
		}
	}
}

// TestRestoredTablesAreExact restores an ASHA image and requires every
// table read from it to hold exactly its entries: a heap's rounded up to
// a multiple of four with its pad.
func TestRestoredTablesAreExact(t *testing.T) {
	rng := xrand.New(3)
	cfg := ASHAConfig{Space: invariantSpace(), RNG: xrand.New(4), Eta: 4, MinResource: 1, MaxResource: 256}
	a := NewASHA(cfg)
	for range 5000 {
		job, _ := a.Next()
		a.Report(Result{TrialID: job.TrialID, Rung: job.Rung, Loss: rng.Float64(), Resource: job.TargetResource})
	}
	cfg.RNG = xrand.New(4)
	b := NewASHA(cfg)
	if err := b.RestoreState(a.AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	if b.trials.c != b.trials.Len() {
		t.Errorf("%d trials restored into %d entries", b.trials.Len(), b.trials.c)
	}
	for k, g := range b.rungs {
		for _, w := range []*Table[uint64]{&g.recorded.words, &g.nominated.words} {
			if w.c != w.Len() {
				t.Errorf("rung %d: a bitset of %d words restored into %d", k, w.Len(), w.c)
			}
		}
		for _, h := range []*entryHeap{&g.lower, &g.upper, &g.cand} {
			if want := (h.items.Len() + 3) &^ 3; h.items.c != want {
				t.Errorf("rung %d: a heap of %d entries restored into %d, want %d", k, h.Len(), h.items.c, want)
			}
		}
	}
}

// FuzzTable drives a table through grows, sets, gets, restores,
// truncations and walks beside a plain slice, at each entry size the
// tables hold, and checks a pointer taken into it stays valid. Run with:
//
//	go test ./internal/core -run '^$' -fuzz FuzzTable -fuzztime 10s
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 64, 0, 0, 65, 0, 2, 0, 64, 4})
	f.Add([]byte{3, 3, 0, 0, 200, 10, 1, 2, 0, 7, 4, 5, 1, 0})
	f.Add([]byte{0, 255, 11, 6, 0, 200, 0, 255, 11, 4, 2, 255, 255})
	f.Add([]byte{3, 0, 4, 0, 255, 9, 5, 0, 40, 4, 0, 90, 3, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fuzzTable(t, ops, func(v uint64) entry8 { return entry8(v) })
		fuzzTable(t, ops, func(v uint64) entry16 { return entry16{v, ^v} })
		fuzzTable(t, ops, func(v uint64) entry32 { return entry32{v, ^v, v + 1, 3} })
		fuzzTable(t, ops, func(v uint64) entry232 {
			var e entry232
			for k := range e {
				e[k] = v + uint64(k)
			}
			return e
		})
	})
}

func fuzzTable[T comparable](t *testing.T, ops []byte, mk func(uint64) T) {
	limit := (4 << 20) / int(unsafe.Sizeof(*new(T))) // entries: 4 MB of them
	var (
		tab   Table[T]
		model []T
		pin   *T // a pointer into the table, to entry pinned
		pinAt = -1
	)
	arg := func() int { // two bytes, little-endian
		var b [2]byte
		ops = ops[copy(b[:], ops):]
		return int(binary.LittleEndian.Uint16(b[:]))
	}
	for step := 0; len(ops) > 0; step++ {
		op := ops[0] % 6
		ops = ops[1:]
		switch op {
		case 0: // grow by a count scaled by a power of two
			by := arg()
			n := min(len(model)+(by&0xff)<<(by>>8%12), limit)
			tab.Grow(n)
			model = append(model, make([]T, max(n-len(model), 0))...)
		case 1: // set
			if len(model) > 0 {
				i := arg() % len(model)
				v := mk(uint64(step))
				*tab.At(i), model[i] = v, v
			}
		case 2: // get, and pin
			if len(model) > 0 {
				i := arg() % len(model)
				if *tab.At(i) != model[i] {
					t.Fatalf("step %d: entry %d of %d differs", step, i, len(model))
				}
				pin, pinAt = tab.At(i), i
			}
		case 3: // restore a known count
			n := arg() % (limit + 1)
			xs := tab.Restore(n)
			if len(xs) != n || cap(xs) != n {
				t.Fatalf("step %d: restored %d entries into %d of %d", step, n, len(xs), cap(xs))
			}
			model = make([]T, n)
			for i := range xs {
				xs[i], model[i] = mk(uint64(i)), mk(uint64(i))
			}
			pinAt = -1
		case 4: // walk
			next := 0
			tab.Each(func(i int, v *T) {
				if i != next || *v != model[i] {
					t.Fatalf("step %d: the walk gave entry %d, want %d of %d", step, i, next, len(model))
				}
				next++
			})
			if next != len(model) {
				t.Fatalf("step %d: the walk gave %d entries of %d", step, next, len(model))
			}
		case 5: // truncate
			n := arg() % (len(model) + 1)
			tab.Truncate(n)
			clear(model[n:])
			model = model[:n]
			if pinAt >= n {
				pinAt = -1
			}
		}
		if tab.Len() != len(model) {
			t.Fatalf("step %d: %d entries, want %d", step, tab.Len(), len(model))
		}
		if pinAt >= 0 && (pin != tab.At(pinAt) || *pin != model[pinAt]) {
			t.Fatalf("step %d: entry %d moved", step, pinAt)
		}
	}
}
