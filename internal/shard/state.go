package shard

import (
	"sort"

	"repro/internal/fault"
	"repro/internal/stream"
)

// State is the serializable snapshot of a quiesced Runtime: the global
// watermark, the router's timestamp replicas (verbatim — they supply the
// profiler's n×(e) and must survive stale-entry differences exactly), and
// the per-stream global window contents, deduplicated across shards and in
// canonical (TS, Seq) order. Per-shard window layouts are NOT serialized:
// Restore re-routes the canonical windows through the deterministic
// partition scheme, which lands every tuple on exactly the shards it
// occupied before (routing is a pure function of key bits and shard count).
// Interval accumulators (delays, crosses, result buffers) are empty by the
// caller's FlushInterval contract and need no representation.
type State struct {
	WM      stream.Time
	Started bool
	Reps    [][]stream.Time // per stream: live router-replica timestamps
	Windows [][]int32       // per stream: deduped tuple IDs, (TS, Seq) order
}

// State captures the runtime's state. Call only after FlushInterval: the
// workers are quiesced (the barrier's happens-before edge makes their
// operator state readable here) and the interval accumulators are empty.
func (rt *Runtime) State(tt *fault.TupleTable) State {
	var st State
	st.WM, st.Started, st.Reps = rt.router.Snapshot()
	st.Windows = make([][]int32, rt.cfg.Cond.M)
	seen := map[*stream.Tuple]bool{}
	for i := range st.Windows {
		var tuples []*stream.Tuple
		for _, b := range rt.shards {
			for _, t := range b.Op.WindowTuples(i) {
				if !seen[t] {
					seen[t] = true
					tuples = append(tuples, t)
				}
			}
		}
		sort.Slice(tuples, func(a, b int) bool { return stream.Less(tuples[a], tuples[b]) })
		for _, t := range tuples {
			st.Windows[i] = append(st.Windows[i], tt.ID(t))
		}
	}
	return st
}

// Restore loads a captured state into a freshly constructed Runtime (same
// condition, windows and shard count). Window tuples re-enter through the
// insert-only routing path under the restored watermark: route() is
// deterministic on the tuple key, so replicas land on the same shards as in
// the original run, and the in-scope filter of InsertAt drops only entries
// that were already expired-but-unpurged — which are invisible to every
// future probe (DESIGN.md §10). Router accounting (OnOutOfOrder, interval
// slices) is bypassed: these inserts are reconstruction, not arrivals.
func (rt *Runtime) Restore(st State, ta *fault.TupleArena) {
	rt.router.RestoreSpine(st.WM, st.Started, st.Reps)
	for _, ids := range st.Windows {
		for _, id := range ids {
			e := ta.Tuple(id)
			all, owner, replicas := rt.router.RouteOnly(e)
			rt.dispatch(Msg[*stream.Tuple]{Item: e, WM: st.WM, Kind: Insert}, all, owner, replicas)
		}
	}
	rt.pool.Sync()
}
