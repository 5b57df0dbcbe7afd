// Package window implements the time-based sliding window maintained by the
// MSWJ operator for each input stream (Sec. II-A).
//
// A window stores the tuples whose timestamps are still within the window
// scope, keeps them ordered by timestamp for cheap expiration, and maintains
// per-attribute indexes for the planner's lookup steps: hash indexes on the
// attributes used by equi-join predicates (probing is O(matches) instead of
// O(window)) and sorted range indexes on the attributes used by band
// predicates |S_l.a − S_r.a| ≤ ε (probing is O(log n + matches)). Both live
// in the shared internal/index package.
//
// # Hot-path design
//
// The window is the single hottest structure in the system: every in-order
// arrival expires and probes m−1 windows and inserts into one. Storage is a
// ring-style deque laid out in a plain slice: the live tuples are
// buf[head:], ordered by (TS, Seq).
//
//   - Insert append fast path: the operator's input is the Synchronizer's
//     output, which is mostly timestamp-ordered, so almost every insert lands
//     at the tail — a single append, amortized O(1), no shifting. The
//     invariant "buf[head:] sorted by (TS, Seq)" is preserved because the
//     fast path is taken exactly when the new tuple sorts ≥ the current tail.
//   - Out-of-order residue (tuples forwarded per lines 9–10 of Alg. 2) falls
//     back to binary search plus a memmove of whichever side of the insertion
//     point is shorter; when dead space exists in front of head the left side
//     shifts into it, so late tuples near the head stay cheap.
//   - Expire advances head instead of copying the tail, nil-ing the vacated
//     slots so expired tuples are released to the GC. When the dead prefix
//     outgrows the live region the buffer is compacted back to offset 0, so
//     memory tracks the live tuple count; the copy is amortized O(1) per
//     expired tuple.
//
// Index maintenance is O(1) per tuple for hash indexes (buckets are FIFO
// deques and a sliding window removes in insertion order, so expiry is a
// front pop) and O(log n) search + small memmove for range indexes; see
// internal/index for the cost model. Both are paid per index per tuple, so
// the operator asks only for the indexes its compiled plans probe.
package window

import (
	"repro/internal/index"
	"repro/internal/stream"
)

// compactMinDead is the minimum dead prefix before Expire considers
// compacting; it keeps tiny windows from copying eagerly.
const compactMinDead = 64

// Window is a time-based sliding window of size W over one input stream.
type Window struct {
	size   stream.Time
	buf    []*stream.Tuple // live region buf[head:], ordered by (TS, Seq)
	head   int
	hashes []hashIndex
	ranges []rangeIndex
}

// hashIndex is one equi index: FIFO buckets by the attribute's canonical
// float bits.
type hashIndex struct {
	attr int
	tab  *index.Hash[*stream.Tuple]
}

// rangeIndex is one band index: tuples in attribute order, range probes
// return contiguous views.
type rangeIndex struct {
	attr int
	tab  *index.Sorted[*stream.Tuple]
}

// New creates a window of the given size with hash indexes on the listed
// attribute positions.
func New(size stream.Time, hashAttrs ...int) *Window {
	return NewIndexed(size, hashAttrs, nil)
}

// NewIndexed creates a window with hash indexes on hashAttrs (equi
// predicates) and sorted range indexes on rangeAttrs (band predicates). An
// attribute may appear in both lists.
func NewIndexed(size stream.Time, hashAttrs, rangeAttrs []int) *Window {
	w := &Window{size: size}
	for _, a := range hashAttrs {
		w.hashes = append(w.hashes, hashIndex{attr: a, tab: index.NewHash[*stream.Tuple]()})
	}
	for _, a := range rangeAttrs {
		w.ranges = append(w.ranges, rangeIndex{attr: a, tab: &index.Sorted[*stream.Tuple]{}})
	}
	return w
}

// Size returns the window extent W in time units.
func (w *Window) Size() stream.Time { return w.size }

// Len returns the number of tuples currently held.
func (w *Window) Len() int { return len(w.buf) - w.head }

// All returns the window content ordered by timestamp. The returned slice is
// a view of the internal storage; callers must not mutate it and must not
// retain it across Insert/Expire calls.
func (w *Window) All() []*stream.Tuple { return w.buf[w.head:] }

// Insert adds a tuple, keeping timestamp order. Duplicate timestamps keep
// arrival order via Seq. A given *Tuple must be inserted at most once.
func (w *Window) Insert(t *stream.Tuple) {
	if n := len(w.buf); n == w.head || !stream.Less(t, w.buf[n-1]) {
		// Fast path: tuple sorts at (or ties with) the tail.
		w.buf = append(w.buf, t)
	} else {
		w.insertSlow(t)
	}
	for i := range w.hashes {
		if k, ok := index.KeyBits(t.Attr(w.hashes[i].attr)); ok {
			w.hashes[i].tab.Add(k, t)
		}
	}
	for i := range w.ranges {
		w.ranges[i].tab.Add(t.Attr(w.ranges[i].attr), t)
	}
}

// insertSlow places an out-of-order tuple by binary search, shifting the
// shorter side of the insertion point; dead space in front of head absorbs
// left shifts.
func (w *Window) insertSlow(t *stream.Tuple) {
	lo, n := w.head, len(w.buf)
	i := lo + searchTuples(w.buf[lo:], t)
	if w.head > 0 && i-w.head <= n-i {
		copy(w.buf[w.head-1:i-1], w.buf[w.head:i])
		w.head--
		w.buf[i-1] = t
		return
	}
	w.buf = append(w.buf, nil)
	copy(w.buf[i+1:], w.buf[i:])
	w.buf[i] = t
}

// searchTuples returns the insertion point of t in the (TS, Seq)-sorted
// slice s.
func searchTuples(s []*stream.Tuple, t *stream.Tuple) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if stream.Less(t, s[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Expire removes every tuple with TS < bound (line 6 of Alg. 2, with
// bound = e.ts − W of the arriving tuple) and returns how many were removed.
// The boundary convention is shared across the framework: the window scope
// at watermark onT is the closed interval [onT − W, onT], so a tuple with
// TS == bound is still in scope and "expired" means strictly older.
func (w *Window) Expire(bound stream.Time) int {
	h := w.head
	for h < len(w.buf) && w.buf[h].TS < bound {
		t := w.buf[h]
		for i := range w.hashes {
			if k, ok := index.KeyBits(t.Attr(w.hashes[i].attr)); ok {
				w.hashes[i].tab.Remove(k, t)
			}
		}
		for i := range w.ranges {
			w.ranges[i].tab.Remove(t.Attr(w.ranges[i].attr), t)
		}
		w.buf[h] = nil
		h++
	}
	n := h - w.head
	w.head = h
	if w.head >= compactMinDead && w.head >= len(w.buf)-w.head {
		w.compact()
	}
	return n
}

// compact moves the live region back to offset 0 so the backing array is
// bounded by ~2× the live high-water mark.
func (w *Window) compact() {
	live := copy(w.buf, w.buf[w.head:])
	tail := w.buf[live:]
	for i := range tail {
		tail[i] = nil
	}
	w.buf = w.buf[:live]
	w.head = 0
	// After a burst the backing array can dwarf the steady-state window;
	// reallocate so memory tracks live tuples.
	if cap(w.buf) >= 1024 && live < cap(w.buf)/4 {
		nb := make([]*stream.Tuple, live, 2*live)
		copy(nb, w.buf)
		w.buf = nb
	}
}

// HashIndex returns the hash index on attr, or nil when the attribute has
// none. It is the direct handle the compiled probe kernel resolves once at
// plan-compile time, so no probe scans the window's index table. The handle
// stays valid for the lifetime of the window (Reset keeps the index
// structures).
func (w *Window) HashIndex(attr int) *index.Hash[*stream.Tuple] {
	for i := range w.hashes {
		if w.hashes[i].attr == attr {
			return w.hashes[i].tab
		}
	}
	return nil
}

// RangeIndex returns the sorted range index on attr, or nil when the
// attribute has none; the band-probe counterpart of HashIndex.
func (w *Window) RangeIndex(attr int) *index.Sorted[*stream.Tuple] {
	for i := range w.ranges {
		if w.ranges[i].attr == attr {
			return w.ranges[i].tab
		}
	}
	return nil
}

// Reset drops all content but keeps the configuration.
func (w *Window) Reset() {
	for i := range w.buf {
		w.buf[i] = nil
	}
	w.buf = w.buf[:0]
	w.head = 0
	for i := range w.hashes {
		w.hashes[i].tab.Reset()
	}
	for i := range w.ranges {
		w.ranges[i].tab.Reset()
	}
}
