// Package pq provides the one min-heap behind every sorter of the framework
// — the K-slack late heap, the Synchronizer's, and the distributed tree
// stages' sync buffers, deadline windows and deadline rings — and Run
// (run.go), the FIFO lane the Synchronizers and the deadline windows keep in
// front of it for what arrives already in order.
//
// Every one of them orders by an integer timestamp with an integer
// tie-breaker, so a slot carries its (Key, Tie) pair inline next to the
// value. A comparison is two integer compares on adjacent slots — no call
// through a less function, no dereference of the values being ordered — and
// a sift moves a hole instead of swapping, one slot write per level. Slots
// live in a typed slice (nothing is boxed), so steady-state Push/Pop never
// allocate once the backing array has reached its high-water mark.
//
// The heap is 4-ary rather than binary: half the depth means half the
// levels per Push on mostly-ordered input, and sift-down compares four
// children that sit next to each other (96 bytes with a pointer value).
package pq

// Item is one heap slot: the value and the (Key, Tie) pair it is ordered by,
// Key first, Tie among equal keys. Items equal on both compare as neither
// before the other.
type Item[V any] struct {
	Key int64
	Tie uint64
	Val V
}

func (a *Item[V]) less(b *Item[V]) bool {
	return a.Key < b.Key || (a.Key == b.Key && a.Tie < b.Tie)
}

// Heap is a d-ary (d=4) min-heap of Items. The zero value is an empty heap.
// Heap is not safe for concurrent use.
type Heap[V any] struct {
	items []Item[V]
}

// Len returns the number of elements held.
func (h *Heap[V]) Len() int { return len(h.items) }

// Peek returns the minimum slot without removing it. It panics on an empty
// heap, like indexing an empty slice would.
func (h *Heap[V]) Peek() Item[V] { return h.items[0] }

// Items exposes the backing slice in heap order (not sorted). Callers may
// scan it read-only; they must not reorder or resize it.
func (h *Heap[V]) Items() []Item[V] { return h.items }

// AppendValues appends the held values to dst in heap order (not sorted).
func (h *Heap[V]) AppendValues(dst []V) []V {
	for i := range h.items {
		dst = append(dst, h.items[i].Val)
	}
	return dst
}

// Push inserts v ordered by (key, tie). Amortized O(log4 n),
// allocation-free once the backing array is warm.
func (h *Heap[V]) Push(key int64, tie uint64, v V) {
	x := Item[V]{Key: key, Tie: tie, Val: v}
	h.items = append(h.items, x)
	h.up(len(h.items)-1, x)
}

// Pop removes the minimum slot and returns its value. The vacated slot is
// zeroed so popped pointers do not pin their referents.
func (h *Heap[V]) Pop() V {
	top := h.items[0].Val
	if x, n := h.shrink(); n > 0 {
		h.down(0, x)
	}
	return top
}

// Reset empties the heap keeping the backing array, zeroing it so stale
// pointers are released.
func (h *Heap[V]) Reset() {
	clear(h.items)
	h.items = h.items[:0]
}

// RemoveAt removes the slot at position i of Items() and returns its value,
// restoring the heap invariant. O(log4 n).
func (h *Heap[V]) RemoveAt(i int) V {
	out := h.items[i].Val
	if x, n := h.shrink(); i < n {
		if h.down(i, x) == i {
			h.up(i, x)
		}
	}
	return out
}

// shrink cuts the last slot off the backing slice and returns it with the
// new length.
func (h *Heap[V]) shrink() (Item[V], int) {
	n := len(h.items) - 1
	x := h.items[n]
	h.items[n] = Item[V]{}
	h.items = h.items[:n]
	return x, n
}

// up places x at the hole i or above it: ancestors that sort after x move
// down into the hole.
func (h *Heap[V]) up(i int, x Item[V]) {
	items := h.items
	for i > 0 {
		p := (i - 1) >> 2
		if !x.less(&items[p]) {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = x
}

// down places x at the hole i or below it — the smallest child moves up
// into the hole while it sorts before x — and returns x's position.
func (h *Heap[V]) down(i int, x Item[V]) int {
	items := h.items
	n := len(items)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if items[j].less(&items[min]) {
				min = j
			}
		}
		if !items[min].less(&x) {
			break
		}
		items[i] = items[min]
		i = min
	}
	items[i] = x
	return i
}
