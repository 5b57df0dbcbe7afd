package join

import (
	"repro/internal/fault"
	"repro/internal/stream"
)

// State is the serializable snapshot of an Operator: the window contents in
// canonical (TS, Seq) order plus the watermark and counters. Index layouts
// (hash buckets, sorted range arrays) are deliberately not serialized —
// RestoreState rebuilds them by re-insertion, which cannot change results or
// K decisions because probe-candidate enumeration order is result-invariant
// (DESIGN.md §10).
type State struct {
	OnT        stream.Time
	Results    int64
	OutOfOrder int64
	Processed  int64
	Windows    [][]int32 // per stream: tuple IDs in (TS, Seq) order
}

// State captures the operator's state, registering window tuples with tt so
// shared pointers (replicas, broadcast copies) serialize once.
func (o *Operator) State(tt *fault.TupleTable) State {
	st := State{OnT: o.onT, Results: o.mem.results, OutOfOrder: o.outOfOrder, Processed: o.processed}
	st.Windows = make([][]int32, len(o.windows))
	for i, w := range o.windows {
		for _, t := range w.All() {
			st.Windows[i] = append(st.Windows[i], tt.ID(t))
		}
	}
	return st
}

// RestoreState loads a captured state into a freshly constructed operator
// (same condition and window sizes): each window re-fills by insertion in
// the canonical serialized order, rebuilding its indexes from scratch.
func (o *Operator) RestoreState(st State, ta *fault.TupleArena) {
	o.onT = st.OnT
	o.mem.results = st.Results
	o.outOfOrder = st.OutOfOrder
	o.processed = st.Processed
	for i, ids := range st.Windows {
		for _, id := range ids {
			o.windows[i].Insert(ta.Tuple(id))
		}
	}
}

// WindowTuples returns the live window contents of stream i in (TS, Seq)
// order. The slice is a live view into the window — read-only.
func (o *Operator) WindowTuples(i int) []*stream.Tuple { return o.windows[i].All() }
