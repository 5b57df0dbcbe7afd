package pq

import "slices"

// runMinDead is the minimum popped prefix of a Run before a Pop considers
// moving the live region back to offset 0.
const runMinDead = 64

// Run is a FIFO of values that arrive already in the order they leave — the
// in-order lane a sorter keeps in front of its late Heap (kslack.Buffer has
// the same shape inline): a slice and a head index, compacted so the backing
// array stays within ~2× the live high-water mark and a drained run reuses
// it from offset 0. The zero value is an empty run. The sorter decides what
// "in order" means; the run only queues.
type Run[V any] struct {
	vals []V
	head int
}

// Len returns the number of queued values.
func (r *Run[V]) Len() int { return len(r.vals) - r.head }

// Front and Back return the oldest and newest queued value; the run must
// not be empty.
func (r *Run[V]) Front() V { return r.vals[r.head] }
func (r *Run[V]) Back() V  { return r.vals[len(r.vals)-1] }

// Push queues v behind everything held.
func (r *Run[V]) Push(v V) { r.vals = append(r.vals, v) }

// Pop removes and returns the oldest value.
func (r *Run[V]) Pop() V {
	var zero V
	v := r.vals[r.head]
	r.vals[r.head] = zero
	r.head++
	if r.head == len(r.vals) {
		r.vals, r.head = r.vals[:0], 0
	} else if r.head >= runMinDead && r.head >= len(r.vals)-r.head {
		live := copy(r.vals, r.vals[r.head:])
		clear(r.vals[live:])
		r.vals, r.head = r.vals[:live], 0
	}
	return v
}

// Grow makes room for n more values without another allocation.
func (r *Run[V]) Grow(n int) { r.vals = slices.Grow(r.vals, n) }

// Live returns the queued values, oldest first, as a view.
func (r *Run[V]) Live() []V { return r.vals[r.head:] }

// Reset empties the run, keeping its backing array.
func (r *Run[V]) Reset() {
	clear(r.vals)
	r.vals, r.head = r.vals[:0], 0
}
