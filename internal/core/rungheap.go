package core

// The rung's building blocks: the entry order, a heap of entries and a
// bitset over trial IDs. ashaRung (asha.go) composes them, each over a
// Table.

import (
	"math"

	"repro/internal/wire"
)

// entryLess is the total order used by all rung bookkeeping: ascending
// loss, NaN after +Inf (a diverged trial ranks worst), ties broken by
// trial ID for determinism.
func entryLess(a, b entry) bool {
	if a.loss < b.loss {
		return true
	}
	if a.loss > b.loss {
		return false
	}
	// Equal losses, or at least one NaN, which compares false both ways.
	if an, bn := math.IsNaN(a.loss), math.IsNaN(b.loss); an != bn {
		return bn
	}
	return a.trialID < b.trialID
}

// entryHeap is a 4-ary heap of entries. When max is false the root is
// the smallest entry under entryLess; when max is true, the largest.
// A sift through rung 0's ~10^5 entries visits half the levels of a
// binary heap's. Position i sits at index i+heapPad of the table, so
// each group of four siblings, 4i+1..4i+4, starts at a multiple of four
// and lies in one segment: a sift looks up one span a level.
type entryHeap struct {
	max   bool
	items Table[entry] // empty, or heapPad unused entries and the heap
}

// heapPad is the unused entries before the root.
const heapPad = 3

func (h *entryHeap) Len() int { return max(h.items.Len()-heapPad, 0) }

func (h *entryHeap) before(a, b entry) bool {
	if h.max {
		return entryLess(b, a)
	}
	return entryLess(a, b)
}

// Peek returns the root without removing it; ok=false when empty.
func (h *entryHeap) Peek() (entry, bool) {
	if h.Len() == 0 {
		return entry{}, false
	}
	return *h.items.At(heapPad), true
}

// Push inserts an entry.
func (h *entryHeap) Push(e entry) {
	i := h.Len()
	h.items.Grow(i + 1 + heapPad)
	hole := h.items.At(i + heapPad)
	for ; i > 0; i = (i - 1) / 4 {
		p := h.items.At((i-1)/4 + heapPad)
		if !h.before(e, *p) {
			break
		}
		*hole, hole = *p, p
	}
	*hole = e
}

// Pop removes and returns the root; ok=false when empty.
func (h *entryHeap) Pop() (entry, bool) {
	n := h.Len()
	if n == 0 {
		return entry{}, false
	}
	root, last := *h.items.At(heapPad), *h.items.At(n - 1 + heapPad)
	if h.items.Truncate(n - 1 + heapPad); n > 1 {
		h.siftDown(last)
	}
	return root, true
}

// Replace swaps e in for the root of a non-empty heap and returns the
// old root: a Pop and a Push for one sift.
func (h *entryHeap) Replace(e entry) entry {
	root := *h.items.At(heapPad)
	h.siftDown(e)
	return root
}

// siftDown puts e in the root's place and moves it down to its own.
func (h *entryHeap) siftDown(e entry) {
	n, hole := h.Len(), h.items.At(heapPad)
	for i := 0; 4*i+1 < n; {
		kids := h.items.Span(4*i+1+heapPad, min(4, n-4*i-1))
		best, c := e, -1
		for k := range kids {
			if h.before(kids[k], best) {
				best, c = kids[k], k
			}
		}
		if c < 0 {
			break
		}
		*hole, hole = best, &kids[c]
		i = 4*i + 1 + c
	}
	*hole = e
}

// restore reads what appendTable wrote of the heap's positions. The
// table is allocated once, to a multiple of four, so that the groups of
// siblings pushed after it stay in one segment.
func (h *entryHeap) restore(r *wire.Reader, get func() entry) {
	n := count(r, 9)
	if n == 0 {
		h.items.Restore(0)
		return
	}
	xs := h.items.Restore((n + heapPad + 3) &^ 3)
	h.items.Truncate(n + heapPad)
	for i := range n {
		xs[heapPad+i] = get()
	}
}

// bitset is a dense set of non-negative ints. ASHA allocates trial IDs
// sequentially, so a bit per issued trial replaces a hash set entry.
type bitset struct{ words Table[uint64] }

// add inserts i and reports whether it was already present.
func (b *bitset) add(i int) bool {
	p, bit := b.words.Ensure(i>>6), uint64(1)<<(i&63)
	had := *p&bit != 0
	*p |= bit
	return had
}
