package core

import (
	"math/bits"
	"unsafe"
)

// Table is a dense table indexed from 0 that grows in place: growing
// allocates a new segment and never copies, so an entry never moves and
// a pointer into the table stays valid for the table's life. Every
// per-trial and per-rung table grows through it, here and in backend,
// cluster and exec.
//
// A table grown from empty allocates a first segment of 64 entries, and
// each segment after it is twice the one before until a segment fills a
// page: the largest power of two entries that fits in 256 KB. Every later
// segment is a page. A table of N entries so holds 1.2–1.5 N on average,
// where one that doubles by copying allocates about 3 N. A table rebuilt
// from a known count (Restore) allocates exactly that count, once, and
// grows in segments after it. The zero value is an empty table.
type Table[T any] struct {
	head []T   // the first segment, or a restored run; len: the entries in it
	segs [][]T // the segments after head, in the geometry below
	n, c int   // the length, and the entries allocated
	// Past head, segment s holds 1<<(base+s) entries until one holds a
	// page, 1<<page entries; so do all later ones.
	base, page uint8
}

// tablePage is the most bytes a page holds.
const tablePage = 256 << 10

// Len returns the number of entries.
func (t *Table[T]) Len() int { return t.n }

// At returns a pointer to entry i, valid for the table's life.
func (t *Table[T]) At(i int) *T {
	if uint(i) < uint(len(t.head)) {
		return &t.head[i]
	}
	return t.past(i)
}

// Find returns a pointer to entry i, nil when the table has no entry i.
func (t *Table[T]) Find(i int) *T {
	if uint(i) >= uint(t.n) {
		return nil
	}
	return t.At(i)
}

// Ensure returns a pointer to entry i, first growing the table to i+1
// entries if it is shorter.
func (t *Table[T]) Ensure(i int) *T {
	t.Grow(i + 1)
	return t.At(i)
}

// past is At of an entry past head.
func (t *Table[T]) past(i int) *T {
	if uint(i) >= uint(t.n) {
		panic("core: table index out of range")
	}
	s, o := t.locate(i - cap(t.head))
	return &t.segs[s][o]
}

// Span returns entries [i, i+n) as one slice over the table. The entries
// must lie in one segment: a span of m ≤ 64 entries, m a power of two,
// whose first index past a restored run is a multiple of m always does.
func (t *Table[T]) Span(i, n int) []T {
	if i+n <= len(t.head) {
		return t.head[i : i+n]
	}
	return t.spanPast(i, n)
}

// spanPast is Span of entries past head; slicing the segment refuses a
// span that runs past its end.
func (t *Table[T]) spanPast(i, n int) []T {
	if n < 0 || uint(i+n) > uint(t.n) || i < cap(t.head) {
		panic("core: table span out of range or across a segment edge")
	}
	s, o := t.locate(i - cap(t.head))
	return t.segs[s][o : o+n : o+n]
}

// locate resolves j, an index past head, to its segment and offset.
func (t *Table[T]) locate(j int) (s, o int) {
	b, p := uint(t.base)&63, uint(t.page)&63 // masked: plain shifts
	if j < 1<<p-1<<b {
		k := uint(bits.Len(uint(j+1<<b))-1) & 63
		return int(k - b), j + 1<<b - 1<<k
	}
	j -= 1<<p - 1<<b // from the first page
	return int(p-b) + j>>p, j & (1<<p - 1)
}

// Grow extends the table to n entries, the new ones zero; a table of n
// or more is left as it is.
func (t *Table[T]) Grow(n int) {
	for t.c < n {
		t.extend()
	}
	t.setLen(max(t.n, n))
}

// setLen sets the length, and head's with it.
func (t *Table[T]) setLen(n int) {
	t.n, t.head = n, t.head[:min(n, cap(t.head))]
}

// Append adds v as the last entry.
func (t *Table[T]) Append(v T) { *t.Ensure(t.n) = v }

// extend allocates the next segment.
func (t *Table[T]) extend() {
	if t.head == nil {
		t.head, t.c = make([]T, 0, 64), 64
		t.setGeometry(7)
		return
	}
	s := len(t.segs)
	size := 1 << min(int(t.base)+s, int(t.page))
	if t.segs == nil {
		// Room for every doubling segment and the first page: a spine
		// that grows again only past the first page.
		t.segs = make([][]T, 0, int(t.page-t.base)+1)
	}
	t.segs = append(t.segs, make([]T, size))
	t.c += size
}

// setGeometry sets the segments after head to start at 1<<base entries.
func (t *Table[T]) setGeometry(base uint8) {
	var zero T
	size := max(unsafe.Sizeof(zero), 1)
	t.base, t.page = base, uint8(max(bits.Len(uint(tablePage/size))-1, int(base)))
}

// Truncate cuts the table to n entries, zeroing the ones it drops; the
// segments stay allocated.
func (t *Table[T]) Truncate(n int) {
	var zero T
	for i := n; i < t.n; i++ {
		*t.At(i) = zero
	}
	t.setLen(min(t.n, n))
}

// Restore empties the table and makes it n zero entries, allocated
// exactly and at once (none for n = 0), and returns them for the caller
// to fill. Later growth continues in segments after them.
func (t *Table[T]) Restore(n int) []T {
	*t = Table[T]{n: n, c: n}
	if n > 0 {
		t.head = make([]T, n)
		t.setGeometry(6)
	}
	return t.head
}

// Each calls fn with each entry in index order.
func (t *Table[T]) Each(fn func(i int, v *T)) {
	for i := range t.head {
		fn(i, &t.head[i])
	}
	for i, s := cap(t.head), 0; i < t.n; i, s = i+len(t.segs[s]), s+1 {
		for k := range t.segs[s][:min(len(t.segs[s]), t.n-i)] {
			fn(i+k, &t.segs[s][k])
		}
	}
}
