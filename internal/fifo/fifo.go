// Package fifo is the queue of recycled fixed-size blocks behind the
// per-arrival histories of the feedback loop: the Statistics Manager's
// R^stat (delay and skew per raw arrival) and the Result-Size Monitor's
// produced-result points.
//
// Both histories slide — pushed at the newest end, popped at the oldest —
// and both shrink and regrow over a run. A slice compacted at the half-way
// mark retains its high-water mark twice and copies the live part at every
// compaction; a Queue keeps emptied blocks and reuses them, so it retains
// its high-water mark once, allocates each block once and never copies an
// element.
package fifo

// BlockLen is the allocation unit in elements: 4 KiB of 16-byte entries.
const BlockLen = 256

// Queue is a FIFO of fixed blocks. blocks holds the live blocks, oldest
// first, followed by the spare ones, and is never trimmed. Popped slots are
// not cleared: T is meant to be a plain value that holds no pointers. The
// zero Queue is empty and ready to use.
type Queue[T any] struct {
	blocks []*[BlockLen]T
	first  int // offset of the oldest element in blocks[0]
	n      int // live elements
}

// Reserve sizes the block table for n live elements, so that it is not
// regrown before the queue holds more than n.
func (q *Queue[T]) Reserve(n int) {
	if need := n/BlockLen + 2; cap(q.blocks) < need {
		q.blocks = append(make([]*[BlockLen]T, 0, need), q.blocks...)
	}
}

// Len returns the number of live elements.
func (q *Queue[T]) Len() int { return q.n }

// Blocks returns the number of blocks held, live and spare.
func (q *Queue[T]) Blocks() int { return len(q.blocks) }

// At returns the i-th oldest element.
func (q *Queue[T]) At(i int) T {
	p := uint(q.first + i)
	return q.blocks[p/BlockLen][p%BlockLen]
}

// Push appends v as the newest element.
func (q *Queue[T]) Push(v T) {
	*q.Tail() = v
	q.n++
}

// Tail returns the slot one past the newest element, allocating its block
// if need be. Writing it changes nothing until Extend makes it live, so a
// caller can write unconditionally and decide with Extend whether the write
// counts — a push without a data-dependent branch.
func (q *Queue[T]) Tail() *T {
	p := uint(q.first + q.n)
	if p/BlockLen == uint(len(q.blocks)) {
		q.blocks = append(q.blocks, new([BlockLen]T))
	}
	return &q.blocks[p/BlockLen][p%BlockLen]
}

// Extend makes the slot Tail returned live when k is 1, and changes
// nothing when k is 0.
func (q *Queue[T]) Extend(k int) { q.n += k }

// Pop removes and returns the oldest element; an emptied block goes behind
// the spares. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	old := q.blocks[0][q.first]
	q.first++
	q.n--
	if q.first == BlockLen {
		b := q.blocks[0]
		copy(q.blocks, q.blocks[1:])
		q.blocks[len(q.blocks)-1] = b
		q.first = 0
	}
	return old
}

// Reset empties the queue and keeps every block as a spare.
func (q *Queue[T]) Reset() { q.first, q.n = 0, 0 }
