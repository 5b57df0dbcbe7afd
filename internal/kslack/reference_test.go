package kslack

import (
	"container/heap"
	"sort"

	"repro/internal/fault"
	"repro/internal/stream"
)

// refBuffer is the K-slack buffer as one heap over every buffered tuple —
// the structure Buffer's run + late heap replaced — kept as the reference
// the differential test holds Buffer against.
type refBuffer struct {
	k      stream.Time
	localT stream.Time
	seen   bool
	heap   refHeap
	emit   EmitFunc

	arrived  int64
	released int64
	shed     int64
	maxDelay stream.Time
}

func newRefBuffer(k stream.Time, emit EmitFunc) *refBuffer {
	if k < 0 {
		k = 0
	}
	return &refBuffer{k: k, emit: emit}
}

func (b *refBuffer) SetK(k stream.Time) {
	if k < 0 {
		k = 0
	}
	b.k = k
	b.release()
}

func (b *refBuffer) Push(e *stream.Tuple) {
	b.arrived++
	if !b.seen || e.TS > b.localT {
		b.localT = e.TS
		b.seen = true
	}
	e.Delay = b.localT - e.TS
	if e.Delay > b.maxDelay {
		b.maxDelay = e.Delay
	}
	heap.Push(&b.heap, e)
	b.release()
}

func (b *refBuffer) Flush() {
	for len(b.heap) > 0 {
		b.pop()
	}
}

func (b *refBuffer) release() {
	for len(b.heap) > 0 && b.heap[0].TS+b.k <= b.localT {
		b.pop()
	}
}

func (b *refBuffer) pop() {
	e := heap.Pop(&b.heap).(*stream.Tuple)
	b.released++
	b.emit(e)
}

// evict drops the buffered tuple identified by (ts, seq).
func (b *refBuffer) evict(ts stream.Time, seq uint64) {
	for i, e := range b.heap {
		if e.TS == ts && e.Seq == seq {
			heap.Remove(&b.heap, i)
			b.shed++
			return
		}
	}
	panic("refBuffer: evict of a tuple that is not buffered")
}

func (b *refBuffer) State(tt *fault.TupleTable) State {
	sorted := append([]*stream.Tuple(nil), b.heap...)
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

func (b *refBuffer) Restore(st State, ta *fault.TupleArena) {
	b.k, b.localT, b.seen = st.K, st.LocalT, st.Seen
	b.arrived, b.released, b.shed, b.maxDelay = st.Arrived, st.Released, st.Shed, st.MaxDelay
	b.heap = b.heap[:0]
	for _, id := range st.Buffered {
		heap.Push(&b.heap, ta.Tuple(id))
	}
}

type refHeap []*stream.Tuple

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return stream.Less(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*stream.Tuple)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
