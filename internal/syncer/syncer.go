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
// The buffer only has to sort what arrives out of order. A K-slack component
// releases its stream in (TS, Seq) order, so a tuple at or past the newest
// one buffered from its stream extends that stream's FIFO lane; only the
// rest — what a K-slack forwarded late — go to a small late heap. The
// release order is the (TS, Seq) minimum of the m lane fronts and the
// heap's root, which is exactly the pop sequence of one heap over everything
// (reference_test.go holds the two against each other).
package syncer

import (
	"sort"

	"repro/internal/fault"
	"repro/internal/pq"
	"repro/internal/stream"
)

// EmitFunc receives synchronized tuples in release order.
type EmitFunc func(*stream.Tuple)

// Synchronizer merges m streams per Alg. 1.
type Synchronizer struct {
	m      int
	tsync  stream.Time
	lanes  []pq.Run[*stream.Tuple] // per stream, nondecreasing in (TS, Seq)
	late   pq.Heap[*stream.Tuple]  // ordered by (TS, Seq)
	held   int
	counts []int // buffered tuples per stream
	open   []bool
	// starved counts the open streams with nothing buffered; the release
	// loop runs while it is zero. Maintained where counts and open change.
	starved int
	emit    EmitFunc

	immediate int64 // tuples forwarded via lines 9–10
	buffered  int64
}

// New creates a Synchronizer over m input streams.
func New(m int, emit EmitFunc) *Synchronizer {
	s := &Synchronizer{
		m:       m,
		lanes:   make([]pq.Run[*stream.Tuple], m),
		counts:  make([]int, m),
		open:    make([]bool, m),
		starved: m,
		emit:    emit,
	}
	for i := range s.open {
		s.open[i] = true
		s.lanes[i].Grow(laneCap)
	}
	return s
}

// laneCap is the initial capacity of a lane: the buffer holds a handful of
// tuples per stream (it drains whenever every stream has one), so lanes
// start at their working size instead of growing into it.
const laneCap = 16

// TSync returns the current maximum timestamp among released tuples.
func (s *Synchronizer) TSync() stream.Time { return s.tsync }

// Len returns the number of buffered tuples.
func (s *Synchronizer) Len() int { return s.held }

// Immediate returns how many tuples bypassed the buffer (out-of-order w.r.t.
// T^sync, forwarded immediately).
func (s *Synchronizer) Immediate() int64 { return s.immediate }

// Push accepts one tuple from the K-slack component of stream e.Src.
func (s *Synchronizer) Push(e *stream.Tuple) {
	if e.TS > s.tsync {
		s.hold(e)
		s.drain()
		return
	}
	s.immediate++
	s.emit(e)
}

// hold buffers e — on its stream's lane when it sorts at or after the lane's
// newest, on the late heap otherwise — and accounts it to its stream.
func (s *Synchronizer) hold(e *stream.Tuple) {
	if l := &s.lanes[e.Src]; l.Len() == 0 || !stream.Less(e, l.Back()) {
		l.Push(e)
	} else {
		s.late.Push(int64(e.TS), e.Seq, e)
	}
	s.held++
	if s.counts[e.Src] == 0 && s.open[e.Src] {
		s.starved--
	}
	s.counts[e.Src]++
	s.buffered++
}

// Close marks stream i as ended. Closed streams no longer gate the release
// loop; closing the last stream flushes the buffer completely.
func (s *Synchronizer) Close(i int) {
	if i < 0 || i >= s.m || !s.open[i] {
		return
	}
	s.open[i] = false
	if s.counts[i] == 0 {
		s.starved--
	}
	s.drain()
}

// drain releases tuples while every open stream has at least one buffered
// tuple: T^sync advances to the minimum buffered timestamp and all tuples at
// that timestamp are emitted. With no open streams the buffer empties fully.
func (s *Synchronizer) drain() {
	if s.starved != 0 {
		return // the common push: some stream still has nothing buffered
	}
	e, at := s.front()
	for e != nil && s.starved == 0 {
		for s.tsync = e.TS; e != nil && e.TS == s.tsync; e, at = s.front() {
			if at < 0 {
				s.late.Pop()
			} else {
				s.lanes[at].Pop()
			}
			s.held--
			s.counts[e.Src]--
			if s.counts[e.Src] == 0 && s.open[e.Src] {
				s.starved++
			}
			s.emit(e)
		}
	}
}

// front returns the buffered (TS, Seq) minimum — the smallest of the lane
// fronts and the late heap's root — and the lane it heads, -1 for the heap;
// nil when nothing is buffered.
func (s *Synchronizer) front() (e *stream.Tuple, at int) {
	at = -1
	if s.late.Len() > 0 {
		e = s.late.Peek().Val
	}
	for i := range s.lanes {
		if l := &s.lanes[i]; l.Len() > 0 && (e == nil || stream.Less(l.Front(), e)) {
			e, at = l.Front(), i
		}
	}
	return e, at
}

// State is the serializable snapshot of a Synchronizer.
type State struct {
	TSync     stream.Time
	Open      []bool
	Immediate int64
	Buffered  []int32 // tuple-table ids, canonical (TS, Seq) order
}

// State captures the synchronizer's state, registering buffered tuples in tt.
func (s *Synchronizer) State(tt *fault.TupleTable) State {
	sorted := s.late.AppendValues(make([]*stream.Tuple, 0, s.held))
	for i := range s.lanes {
		sorted = append(sorted, s.lanes[i].Live()...)
	}
	sort.Slice(sorted, func(i, j int) bool { return stream.Less(sorted[i], sorted[j]) })
	st := State{
		TSync:     s.tsync,
		Open:      append([]bool(nil), s.open...),
		Immediate: s.immediate,
		Buffered:  make([]int32, len(sorted)),
	}
	for i, e := range sorted {
		st.Buffered[i] = tt.ID(e)
	}
	return st
}

// Restore loads a captured state into a freshly constructed synchronizer
// (same m and emit sink). Per-stream counts are rebuilt from the buffered
// tuples' Src fields.
func (s *Synchronizer) Restore(st State, ta *fault.TupleArena) {
	s.tsync = st.TSync
	s.immediate = st.Immediate
	s.starved = 0
	for i := range s.open {
		s.open[i] = st.Open[i]
		if s.open[i] {
			s.starved++
		}
		s.counts[i] = 0
	}
	for i := range s.lanes {
		s.lanes[i].Reset()
	}
	s.late.Reset()
	s.held, s.buffered = 0, 0
	for _, id := range st.Buffered {
		s.hold(ta.Tuple(id))
	}
}
