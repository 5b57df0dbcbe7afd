// Package syncer implements the Synchronizer of Alg. 1, which merges the
// output streams of all K-slack components into a single, mostly
// timestamp-ordered stream for the join operator.
//
// A tuple e with e.ts > T^sync enters the synchronization buffer; whenever
// the buffer holds at least one tuple from every (still open) stream, the
// minimum-timestamp tuples are released and T^sync advances. A tuple with
// e.ts ≤ T^sync is forwarded immediately (lines 9–10), which is why the join
// operator can still observe out-of-order input.
//
// Finite experiment streams additionally need end-of-stream handling: once a
// stream is closed it no longer gates the release loop, otherwise the last
// window of every other stream would be withheld forever.
//
// Sync is the one Alg. 1, generic over the buffered value: Synchronizer
// runs it over the flat operator's m input streams, and every binary stage
// of a tree (internal/dist) over its two sides. Each input is a lane, one
// pq.Queue: a K-slack component releases its stream in order, so nearly
// every value extends its lane's FIFO run and only what a K-slack forwarded
// late is heap-sorted. The release order is the (timestamp, tie) minimum of
// the m lane fronts, which is exactly the pop sequence of one heap over
// everything (reference_test.go holds the two against each other).
package syncer

import (
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/pq"
	"repro/internal/stream"
)

// Sync is Alg. 1 over m lanes of buffered values of type V. key reads a
// value's (timestamp, tie) pair, which orders releases; emit receives every
// released or immediately forwarded value with its lane.
type Sync[V comparable] struct {
	tsync stream.Time
	lanes []pq.Queue[V]
	open  []bool
	// starved counts the open lanes with nothing buffered; the release loop
	// runs while it is zero. Maintained where lanes fill, empty and close.
	starved   int
	key       func(V) (int64, uint64)
	emit      func(v V, lane int)
	immediate int64 // values forwarded via lines 9–10
}

// NewSync creates a Sync over m lanes.
func NewSync[V comparable](m int, key func(V) (int64, uint64), emit func(v V, lane int)) *Sync[V] {
	s := &Sync[V]{lanes: make([]pq.Queue[V], m), open: make([]bool, m), starved: m, key: key, emit: emit}
	for i := range s.lanes {
		s.lanes[i], s.open[i] = pq.NewQueue(key), true
	}
	return s
}

// TSync returns the current maximum timestamp among released values.
func (s *Sync[V]) TSync() stream.Time { return s.tsync }

// Len returns the number of buffered values.
func (s *Sync[V]) Len() int {
	n := 0
	for i := range s.lanes {
		n += s.lanes[i].Len()
	}
	return n
}

// Lane exposes lane i's queue, read-only.
func (s *Sync[V]) Lane(i int) *pq.Queue[V] { return &s.lanes[i] }

// Immediate returns how many values bypassed the buffer (out-of-order w.r.t.
// T^sync, forwarded immediately).
func (s *Sync[V]) Immediate() int64 { return s.immediate }

// Push accepts value v on lane i.
func (s *Sync[V]) Push(v V, i int) {
	ts, tie := s.key(v)
	if stream.Time(ts) <= s.tsync {
		s.immediate++
		s.emit(v, i)
		return
	}
	q := &s.lanes[i]
	if q.Len() == 0 && s.open[i] {
		s.starved--
	}
	q.Push(ts, tie, v)
	s.drain()
}

// Close marks lane i as ended. Closed lanes no longer gate the release
// loop; closing the last lane flushes the buffer completely.
func (s *Sync[V]) Close(i int) {
	if i < 0 || i >= len(s.lanes) || !s.open[i] {
		return
	}
	s.open[i] = false
	if s.lanes[i].Len() == 0 {
		s.starved--
	}
	s.drain()
}

// drain releases values while every open lane has at least one buffered:
// T^sync advances to the minimum buffered timestamp and all values at that
// timestamp are emitted, in (timestamp, tie) order, before readiness is
// checked again. With no open lanes the buffer empties fully.
func (s *Sync[V]) drain() {
	if s.starved != 0 {
		return // the common push: some lane still has nothing buffered
	}
	f, at := s.front()
	for at >= 0 && s.starved == 0 {
		for s.tsync = stream.Time(f.Key); at >= 0 && stream.Time(f.Key) == s.tsync; f, at = s.front() {
			q := &s.lanes[at]
			q.Pop()
			if q.Len() == 0 && s.open[at] {
				s.starved++
			}
			s.emit(f.Val, at)
		}
	}
}

// front returns the buffered minimum — the smallest of the lane fronts —
// and its lane; lane -1 when nothing is buffered.
func (s *Sync[V]) front() (f pq.Item[V], at int) {
	at = -1
	for i := range s.lanes {
		if q := &s.lanes[i]; q.Len() > 0 {
			if g := q.Front(); at < 0 || g.Less(&f) {
				f, at = g, i
			}
		}
	}
	return f, at
}

// Snapshot is a Sync's state: its registers and the buffered values, in
// no particular order.
type Snapshot[V any] struct {
	TSync     stream.Time
	Open      []bool
	Immediate int64
	Held      []V
}

// Capture returns the Sync's state.
func (s *Sync[V]) Capture() Snapshot[V] {
	st := Snapshot[V]{TSync: s.tsync, Open: slices.Clone(s.open), Immediate: s.immediate}
	for i := range s.lanes {
		st.Held = s.lanes[i].AppendValues(st.Held)
	}
	return st
}

// Load puts a captured state into a freshly constructed Sync (same m, key
// and emit), holding every value on the lane laneOf names — without
// forwarding or releasing any. It panics with a "syncer: restore: …"
// message on a state no Sync of m lanes can hold.
func (s *Sync[V]) Load(st Snapshot[V], laneOf func(V) int) {
	m := len(s.lanes)
	if len(st.Open) != m {
		panic(fmt.Sprintf("syncer: restore: %d open flags into a synchronizer of %d lanes", len(st.Open), m))
	}
	for _, v := range st.Held {
		if i := laneOf(v); i < 0 || i >= m {
			panic(fmt.Sprintf("syncer: restore: a buffered value on lane %d of %d", i, m))
		}
	}
	s.tsync, s.immediate, s.starved = st.TSync, st.Immediate, 0
	for _, v := range st.Held {
		k, t := s.key(v)
		s.lanes[laneOf(v)].Push(k, t, v)
	}
	for i := range s.lanes {
		if s.open[i] = st.Open[i]; s.open[i] && s.lanes[i].Len() == 0 {
			s.starved++
		}
	}
}

// EmitFunc receives synchronized tuples in release order.
type EmitFunc func(*stream.Tuple)

// Synchronizer merges m streams per Alg. 1: a Sync over tuples, one lane
// per stream, ordered by (TS, Seq).
type Synchronizer struct {
	Sync[*stream.Tuple]
}

// New creates a Synchronizer over m input streams.
func New(m int, emit EmitFunc) *Synchronizer {
	return &Synchronizer{*NewSync(m, stream.Key, func(e *stream.Tuple, _ int) { emit(e) })}
}

// Push accepts one tuple from the K-slack component of stream e.Src.
func (s *Synchronizer) Push(e *stream.Tuple) { s.Sync.Push(e, e.Src) }

// State is the serializable snapshot of a Synchronizer.
type State struct {
	TSync     stream.Time
	Open      []bool
	Immediate int64
	Buffered  []int32 // tuple-table ids, canonical (TS, Seq) order
}

// State captures the synchronizer's state, registering buffered tuples in tt.
func (s *Synchronizer) State(tt *fault.TupleTable) State {
	sn := s.Capture()
	return State{TSync: sn.TSync, Open: sn.Open, Immediate: sn.Immediate, Buffered: tt.SortedIDs(sn.Held)}
}

// Restore loads a captured state into a freshly constructed synchronizer
// (same m and emit sink); each buffered tuple re-enters its stream's lane.
// It panics with a "syncer: restore: …" message on a state no
// Synchronizer of m streams can hold.
func (s *Synchronizer) Restore(st State, ta *fault.TupleArena) {
	held, err := ta.Tuples(st.Buffered)
	if err != nil {
		panic("syncer: restore: buffered " + err.Error())
	}
	s.Load(Snapshot[*stream.Tuple]{TSync: st.TSync, Open: st.Open, Immediate: st.Immediate, Held: held}, srcOf)
}

func srcOf(e *stream.Tuple) int { return e.Src }
