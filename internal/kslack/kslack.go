// Package kslack implements the K-slack input-sorting buffer (Sec. III-A,
// Fig. 3) used to handle the intra-stream disorder of one input stream.
//
// A buffer of K time units sorts arriving tuples by timestamp: whenever the
// stream's local current time iT advances, every buffered tuple e with
// e.ts + K ≤ iT is released in timestamp order. A tuple whose delay exceeds
// K is released late and remains out of order in the output.
//
// The buffer only has to sort the disorder, so it only pays for disorder. A
// tuple that sorts at or after the newest in-order entry under (TS, Seq) is
// appended to a FIFO run — a slice and a head index, no comparisons beyond
// that one; only a tuple that sorts before the run's tail goes to a small
// late heap (internal/pq). Release pops the smaller of the two fronts, so
// the release sequence is the (TS, Seq) order of one heap over everything,
// the worst case (every tuple late) is that heap's O(log n), and a mostly
// ordered stream is a slice append and a head increment per tuple.
//
// The component also performs the delay annotation of Sec. IV-B: every tuple
// is stamped with delay(e) = iT − e.ts on arrival, and the annotation rides
// with the tuple to the join operator and the Tuple-Productivity Profiler.
package kslack

import (
	"iter"
	"slices"
	"sort"

	"repro/internal/fault"
	"repro/internal/pq"
	"repro/internal/stream"
)

// EmitFunc receives released tuples in release order.
type EmitFunc func(*stream.Tuple)

// compactMinDead is the minimum released prefix of the run before a release
// considers moving the live region back to offset 0; below it the copy is
// not worth the memory.
const compactMinDead = 64

// Buffer is a K-slack sorting buffer for a single stream. K may change at
// any time through SetK; shrinking K releases newly eligible tuples
// immediately so an adaptation step takes effect without waiting for the
// next arrival.
type Buffer struct {
	k      stream.Time
	localT stream.Time
	seen   bool
	// run[head:] is the in-order lane, nondecreasing in (TS, Seq); late
	// holds the tuples that arrived sorting before the run's tail.
	run  []*stream.Tuple
	head int
	late pq.Heap[*stream.Tuple]
	emit EmitFunc

	arrived  int64
	released int64
	shed     int64
	maxDelay stream.Time
}

// New creates a K-slack buffer with initial buffer size k (≥ 0) emitting
// released tuples to emit.
func New(k stream.Time, emit EmitFunc) *Buffer {
	if k < 0 {
		k = 0
	}
	return &Buffer{k: k, emit: emit}
}

// K returns the current buffer size in time units.
func (b *Buffer) K() stream.Time { return b.k }

// SetK changes the buffer size. Reducing K releases all newly eligible
// tuples right away.
func (b *Buffer) SetK(k stream.Time) {
	if k < 0 {
		k = 0
	}
	b.k = k
	b.release()
}

// LocalT returns the stream's local current time iT, the maximum timestamp
// among arrived tuples (Sec. II-A).
func (b *Buffer) LocalT() stream.Time { return b.localT }

// Len returns the number of currently buffered tuples.
func (b *Buffer) Len() int { return len(b.run) - b.head + b.late.Len() }

// Arrived returns the number of tuples pushed so far.
func (b *Buffer) Arrived() int64 { return b.arrived }

// Released returns the number of tuples emitted so far. At any point
// Arrived() == Released() + Shed() + Len(): the buffer never duplicates a
// tuple, and it only ever drops one through an explicit Evict (load
// shedding).
func (b *Buffer) Released() int64 { return b.released }

// Shed returns the number of tuples dropped through Evict.
func (b *Buffer) Shed() int64 { return b.shed }

// MaxDelay returns the maximum delay observed among arrived tuples.
func (b *Buffer) MaxDelay() stream.Time { return b.maxDelay }

// Push accepts one arriving tuple: updates iT, annotates the tuple's delay,
// buffers it and releases every tuple whose slack has expired.
func (b *Buffer) Push(e *stream.Tuple) {
	b.arrived++
	if !b.seen || e.TS > b.localT {
		b.localT = e.TS
		b.seen = true
	}
	e.Delay = b.localT - e.TS
	if e.Delay > b.maxDelay {
		b.maxDelay = e.Delay
	}
	// Fast path: with nothing buffered and the tuple's slack already
	// expired (always the case at K = 0), buffer-then-release is a detour —
	// emit directly. Identical release order and counters.
	if b.Len() == 0 && e.TS+b.k <= b.localT {
		b.released++
		b.emit(e)
		return
	}
	b.hold(e)
	b.release()
}

// hold buffers e: on the run when it sorts at or after the run's tail (or
// the run is empty), on the late heap otherwise.
func (b *Buffer) hold(e *stream.Tuple) {
	if n := len(b.run); n == b.head || !stream.Less(e, b.run[n-1]) {
		b.run = append(b.run, e)
		return
	}
	b.late.Push(int64(e.TS), e.Seq, e)
}

// Flush releases every remaining buffered tuple in timestamp order. Call it
// when the input stream ends.
func (b *Buffer) Flush() {
	for e, inRun := b.front(); e != nil; e, inRun = b.front() {
		b.pop(e, inRun)
	}
}

// release emits all tuples with ts + K ≤ iT, in timestamp order.
func (b *Buffer) release() {
	for e, inRun := b.front(); e != nil && e.TS+b.k <= b.localT; e, inRun = b.front() {
		b.pop(e, inRun)
	}
}

// front returns the buffered (TS, Seq) minimum — the smaller of the run's
// head and the late heap's root — and whether it is the run's; nil when
// nothing is buffered.
func (b *Buffer) front() (e *stream.Tuple, inRun bool) {
	if b.head < len(b.run) {
		e, inRun = b.run[b.head], true
	}
	if b.late.Len() > 0 {
		l := b.late.Peek()
		if !inRun || l.Key < int64(e.TS) || (l.Key == int64(e.TS) && l.Tie < e.Seq) {
			return l.Val, false
		}
	}
	return e, inRun
}

// pop releases e, the tuple front just returned.
func (b *Buffer) pop(e *stream.Tuple, inRun bool) {
	if inRun {
		b.run[b.head] = nil
		b.head++
		if b.head == len(b.run) {
			b.run, b.head = b.run[:0], 0
		} else if b.head >= compactMinDead && b.head >= len(b.run)-b.head {
			// The released prefix is at least as long as the live region:
			// move the latter back to offset 0, so the backing array stays
			// within ~2× the live high-water mark at amortized O(1).
			live := copy(b.run, b.run[b.head:])
			clear(b.run[live:])
			b.run, b.head = b.run[:live], 0
		}
	} else {
		b.late.Pop()
	}
	b.released++
	b.emit(e)
}

// All iterates over the buffered tuples in no particular order. The buffer
// must not change during the iteration. Load shedding scans it to pick a
// victim.
func (b *Buffer) All() iter.Seq[*stream.Tuple] {
	return func(yield func(*stream.Tuple) bool) {
		for _, e := range b.run[b.head:] {
			if !yield(e) {
				return
			}
		}
		for _, it := range b.late.Items() {
			if !yield(it.Val) {
				return
			}
		}
	}
}

// ShedBefore is the order load shedding breaks equal productivity scores by:
// a sheds before b when its delay is larger, then when it sorts first under
// (TS, Seq) — a total order on a buffer's content that no container layout
// takes part in.
func ShedBefore(a, b *stream.Tuple) bool {
	return a.Delay > b.Delay || (a.Delay == b.Delay && stream.Less(a, b))
}

// Evict drops the buffered tuple e without emitting it, counting it as
// shed. It panics when e is not buffered.
func (b *Buffer) Evict(e *stream.Tuple) {
	if i := slices.Index(b.run[b.head:], e); i >= 0 {
		b.run = slices.Delete(b.run, b.head+i, b.head+i+1)
	} else {
		b.late.RemoveAt(slices.IndexFunc(b.late.Items(), func(it pq.Item[*stream.Tuple]) bool { return it.Val == e }))
	}
	b.shed++
}

// State is the serializable snapshot of a Buffer; see Checkpoint in
// internal/plan.
type State struct {
	K        stream.Time
	LocalT   stream.Time
	Seen     bool
	Arrived  int64
	Released int64
	Shed     int64
	MaxDelay stream.Time
	Buffered []int32 // tuple-table ids, canonical (TS, Seq) order
}

// State captures the buffer's state, registering buffered tuples in tt.
func (b *Buffer) State(tt *fault.TupleTable) State {
	sorted := slices.AppendSeq(make([]*stream.Tuple, 0, b.Len()), b.All())
	sort.Slice(sorted, func(i, j int) bool { return stream.Less(sorted[i], sorted[j]) })
	st := State{
		K: b.k, LocalT: b.localT, Seen: b.seen,
		Arrived: b.arrived, Released: b.released, Shed: b.shed, MaxDelay: b.maxDelay,
		Buffered: make([]int32, len(sorted)),
	}
	for i, e := range sorted {
		st.Buffered[i] = tt.ID(e)
	}
	return st
}

// Restore loads a captured state into a freshly constructed buffer (same
// emit sink). Buffered tuples re-enter without re-annotation or release: the
// restored buffer holds exactly the checkpointed content (all of it on the
// run, State having sorted it).
func (b *Buffer) Restore(st State, ta *fault.TupleArena) {
	b.k = st.K
	b.localT = st.LocalT
	b.seen = st.Seen
	b.arrived = st.Arrived
	b.released = st.Released
	b.shed = st.Shed
	b.maxDelay = st.MaxDelay
	clear(b.run)
	b.run, b.head = b.run[:0], 0
	b.late.Reset()
	for _, id := range st.Buffered {
		b.hold(ta.Tuple(id))
	}
}
