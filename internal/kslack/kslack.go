// Package kslack implements the K-slack input-sorting buffer (Sec. III-A,
// Fig. 3) used to handle the intra-stream disorder of one input stream.
//
// A buffer of K time units sorts arriving tuples by timestamp: whenever the
// stream's local current time iT advances, every buffered tuple e with
// e.ts + K ≤ iT is released in timestamp order. A tuple whose delay exceeds
// K is released late and remains out of order in the output.
//
// The buffer only has to sort the disorder, so it only pays for disorder:
// it is a pq.Queue under (TS, Seq) — a FIFO run for the tuples that arrive
// in order, a small late heap for the rest — whose pop sequence is that of
// one heap over everything.
//
// The component also performs the delay annotation of Sec. IV-B: every tuple
// is stamped with delay(e) = iT − e.ts on arrival, and the annotation rides
// with the tuple to the join operator and the Tuple-Productivity Profiler.
package kslack

import (
	"iter"

	"repro/internal/fault"
	"repro/internal/pq"
	"repro/internal/stream"
)

// EmitFunc receives released tuples in release order.
type EmitFunc func(*stream.Tuple)

// Buffer is a K-slack sorting buffer for a single stream. K may change at
// any time through SetK; shrinking K releases newly eligible tuples
// immediately so an adaptation step takes effect without waiting for the
// next arrival.
type Buffer struct {
	k      stream.Time
	localT stream.Time
	seen   bool
	q      pq.Queue[*stream.Tuple] // the buffered tuples, by (TS, Seq)
	emit   EmitFunc

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
	return &Buffer{k: k, q: pq.NewQueue(stream.Key), emit: emit}
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
func (b *Buffer) Len() int { return b.q.Len() }

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
	b.q.Push(int64(e.TS), e.Seq, e)
	b.release()
}

// Flush releases every remaining buffered tuple in timestamp order. Call it
// when the input stream ends.
func (b *Buffer) Flush() {
	for b.q.Len() > 0 {
		b.released++
		b.emit(b.q.Pop())
	}
}

// release emits all tuples with ts + K ≤ iT, in timestamp order.
func (b *Buffer) release() {
	for b.q.Len() > 0 && stream.Time(b.q.Front().Key)+b.k <= b.localT {
		b.released++
		b.emit(b.q.Pop())
	}
}

// All iterates over the buffered tuples in no particular order. The buffer
// must not change during the iteration. Load shedding scans it to pick a
// victim.
func (b *Buffer) All() iter.Seq[*stream.Tuple] { return b.q.All() }

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
	b.q.Remove(e)
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
	return State{
		K: b.k, LocalT: b.localT, Seen: b.seen,
		Arrived: b.arrived, Released: b.released, Shed: b.shed, MaxDelay: b.maxDelay,
		Buffered: tt.SortedIDs(b.q.AppendValues(nil)),
	}
}

// Restore loads a captured state into a freshly constructed buffer (same
// emit sink). Buffered tuples re-enter without re-annotation or release: the
// restored buffer holds exactly the checkpointed content (all of it on the
// run, State having sorted it). It panics with a "kslack: restore: …"
// message on a buffered id outside ta.
func (b *Buffer) Restore(st State, ta *fault.TupleArena) {
	held, err := ta.Tuples(st.Buffered)
	if err != nil {
		panic("kslack: restore: buffered " + err.Error())
	}
	b.k, b.localT, b.seen = st.K, st.LocalT, st.Seen
	b.arrived, b.released, b.shed, b.maxDelay = st.Arrived, st.Released, st.Shed, st.MaxDelay
	b.q.Reset()
	for _, e := range held {
		b.q.Push(int64(e.TS), e.Seq, e)
	}
}
