package pq

import (
	"iter"
	"slices"
)

// queueMinDead is the minimum popped prefix of a Queue's run before a Pop
// considers moving the live region back to offset 0.
const queueMinDead = 64

// Queue is a min-queue for values that mostly arrive in the order they
// leave. A value that sorts at or after the newest value of the run — a
// FIFO of bare values, compacted so its array stays within ~2× the live
// high-water mark — is appended to it; only a value that sorts before the
// run's tail goes to a late Heap. Front and Pop take the smaller of the
// run's head and the heap's root, so the pop sequence is one Heap's over
// everything, while an ordered input costs an append and a head increment
// per value.
//
// Push takes a value's (Key, Tie) pair like Heap.Push, and the run keeps
// bare values: the key function given to NewQueue re-reads a value's pair
// when it becomes the run's head. A Queue is not safe for concurrent use.
type Queue[V comparable] struct {
	key     func(V) (int64, uint64)
	run     []V // run[head:] is nondecreasing in (Key, Tie)
	head    int
	first   Item[V] // the run's head; stale while the run is empty
	tailKey int64   // the run's newest pair; stale while the run is empty
	tailTie uint64
	late    Heap[V]
}

// NewQueue returns an empty Queue ordering its values by key.
func NewQueue[V comparable](key func(V) (int64, uint64)) Queue[V] {
	return Queue[V]{key: key}
}

// Len returns the number of values held.
func (q *Queue[V]) Len() int { return len(q.run) - q.head + q.late.Len() }

// Late returns the number of values on the late heap.
func (q *Queue[V]) Late() int { return q.late.Len() }

// Push inserts v, whose pair (k, t) must be the one the key function reads.
func (q *Queue[V]) Push(k int64, t uint64, v V) {
	if q.head == len(q.run) {
		q.first = Item[V]{Key: k, Tie: t, Val: v}
	} else if k < q.tailKey || (k == q.tailKey && t < q.tailTie) {
		q.late.Push(k, t, v)
		return
	}
	q.run = append(q.run, v)
	q.tailKey, q.tailTie = k, t
}

// Front returns the minimum slot; the queue must not be empty. Of equal
// pairs, the run's goes first.
func (q *Queue[V]) Front() Item[V] {
	if q.lateFirst() {
		return q.late.items[0]
	}
	return q.first
}

// Pop removes and returns the minimum value; the queue must not be empty.
func (q *Queue[V]) Pop() V {
	if q.lateFirst() {
		return q.late.Pop()
	}
	v := q.first.Val
	var zero V
	q.run[q.head] = zero
	q.head++
	q.settle()
	return v
}

func (q *Queue[V]) lateFirst() bool {
	return q.late.Len() > 0 && (q.head == len(q.run) || q.late.items[0].Less(&q.first))
}

// settle re-reads the run's head after the run changed: an emptied run
// restarts at offset 0, and a popped prefix at least as long as the live
// region moves the latter back to offset 0, at amortized O(1).
func (q *Queue[V]) settle() {
	n := len(q.run)
	if q.head == n {
		q.run, q.head = q.run[:0], 0
		return
	}
	if q.head >= queueMinDead && q.head >= n-q.head {
		live := copy(q.run, q.run[q.head:])
		clear(q.run[live:])
		q.run, q.head = q.run[:live], 0
	}
	v := q.run[q.head]
	k, t := q.key(v)
	q.first = Item[V]{Key: k, Tie: t, Val: v}
}

// Remove drops the held value v. O(n); it panics when v is not held.
func (q *Queue[V]) Remove(v V) {
	if i := slices.Index(q.run[q.head:], v); i >= 0 {
		// A removed tail leaves its pair cached: at or past the new tail's,
		// it still admits only values that keep the run sorted.
		q.run = slices.Delete(q.run, q.head+i, q.head+i+1)
		q.settle()
		return
	}
	i := slices.IndexFunc(q.late.items, func(it Item[V]) bool { return it.Val == v })
	if i < 0 {
		panic("pq: Remove of a value the queue does not hold")
	}
	q.late.RemoveAt(i)
}

// All iterates over the held values in no particular order: the run's
// oldest first, then the late heap's in heap order. The queue must not
// change during the iteration.
func (q *Queue[V]) All() iter.Seq[V] {
	return func(yield func(V) bool) {
		for _, v := range q.run[q.head:] {
			if !yield(v) {
				return
			}
		}
		for i := range q.late.items {
			if !yield(q.late.items[i].Val) {
				return
			}
		}
	}
}

// AppendValues appends the held values to dst in All's order.
func (q *Queue[V]) AppendValues(dst []V) []V {
	return q.late.AppendValues(append(dst, q.run[q.head:]...))
}

// Reset empties the queue, keeping its backing arrays.
func (q *Queue[V]) Reset() {
	clear(q.run)
	q.run, q.head = q.run[:0], 0
	q.late.Reset()
}
