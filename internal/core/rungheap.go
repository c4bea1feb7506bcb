package core

// The rung's building blocks: the entry order, a heap of entries and a
// bitset over trial IDs. ashaRung (asha.go) composes them. GrowTo is how
// they, and the other per-trial tables, grow.

import (
	"math"
	"slices"
)

// GrowTo returns s grown to length n, the new entries zero. Every dense
// per-trial table grows through it, here and in backend, cluster and
// exec. A table that must grow doubles: past 256 entries append alone
// grows a slice by about 1.25x, so a per-trial table grown an entry at
// a time would allocate about five times its final size and copy itself
// about four times.
func GrowTo[T any](s []T, n int) []T {
	if n > cap(s) {
		s = slices.Grow(s, max(n, 2*len(s))-len(s))
	}
	return append(s, make([]T, n-len(s))...)
}

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
// binary heap's, and a level's four siblings sit side by side in memory.
type entryHeap struct {
	max   bool
	items []entry
}

func (h *entryHeap) Len() int { return len(h.items) }

func (h *entryHeap) before(a, b entry) bool {
	if h.max {
		return entryLess(b, a)
	}
	return entryLess(a, b)
}

// Peek returns the root without removing it; ok=false when empty.
func (h *entryHeap) Peek() (entry, bool) {
	if len(h.items) == 0 {
		return entry{}, false
	}
	return h.items[0], true
}

// Push inserts an entry.
func (h *entryHeap) Push(e entry) {
	h.items = GrowTo(h.items, len(h.items)+1)
	i := len(h.items) - 1
	h.items[i] = e
	for i > 0 {
		parent := (i - 1) / 4
		if !h.before(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// Pop removes and returns the root; ok=false when empty.
func (h *entryHeap) Pop() (entry, bool) {
	n := len(h.items)
	if n == 0 {
		return entry{}, false
	}
	root := h.items[0]
	h.items[0] = h.items[n-1]
	h.items = h.items[:n-1]
	h.siftDown(0)
	return root, true
}

// Replace swaps e in for the root of a non-empty heap and returns the
// old root: a Pop and a Push for one sift.
func (h *entryHeap) Replace(e entry) entry {
	root := h.items[0]
	h.items[0] = e
	h.siftDown(0)
	return root
}

func (h *entryHeap) siftDown(i int) {
	n := len(h.items)
	for {
		best := i
		for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
			if h.before(h.items[c], h.items[best]) {
				best = c
			}
		}
		if best == i {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}

// bitset is a dense set of non-negative ints. ASHA allocates trial IDs
// sequentially, so a bit per issued trial replaces a hash set entry.
type bitset []uint64

// add inserts i and reports whether it was already present.
func (b *bitset) add(i int) bool {
	w, bit := i>>6, uint64(1)<<(i&63)
	if w >= len(*b) {
		*b = GrowTo(*b, w+1)
	}
	had := (*b)[w]&bit != 0
	(*b)[w] |= bit
	return had
}
