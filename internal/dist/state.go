// Checkpoint state of the plan-tree executors (DESIGN.md §10).
//
// What gets serialized is the minimal deterministic core: per-stage
// Synchronizer registers and buffered events, window CONTENTS in a
// canonical (ts, ord) order, and — on sharded stages — the router-side
// deadline multisets verbatim. Index layouts (hash buckets, sorted arrays,
// heap shapes) and per-worker window partitions are deliberately NOT
// serialized: Restore rebuilds them by re-insertion, and on sharded stages
// re-routes the canonical window contents through the deterministic
// partition function, which lands every event on exactly the workers it
// occupied before. The order-invariance argument of DESIGN.md §10 makes the
// rebuilt layouts result-equivalent.
//
// A tree checkpoint must be captured at a quiesced point — after Quiesce,
// which every adaptation boundary already performs. At such a point no
// probe awaits release, so a restored tree (whose release count restarts
// at zero) reproduces the release points, the parent-side event
// interleavings, and hence the result multiset and the K trajectory of the
// uninterrupted run, bit-for-bit.
package dist

import (
	"cmp"
	"slices"

	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/kslack"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/syncer"
)

// StageState is the serializable snapshot of one pstage.
type StageState struct {
	// Synchronizer registers (Alg. 1, m = 2).
	TSync stream.Time
	Ord   uint64
	Open  [2]bool
	// Buffered, not-yet-synchronized events in canonical (ts, ord) order.
	SyncBuf []fault.EventRec

	OnT stream.Time
	// Win holds the two window contents of an unsharded stage, canonical
	// (ts, ord) order; empty when the stage is sharded.
	Win [2][]fault.EventRec
	// Rings and ShWin hold a sharded stage's state: the router's global
	// deadline multisets (verbatim — they supply n×(e) and must survive
	// stale-entry differences exactly) and the global window contents,
	// deduplicated across band-replica copies and in canonical (ts, ord)
	// order.
	Rings [2][]stream.Time
	ShWin [2][]fault.EventRec
}

// TreeState is the serializable snapshot of a quiesced PlanTree.
type TreeState struct {
	Results int64
	Leaves  []kslack.State // by raw stream index
	Stages  []StageState   // post-order, matching PlanTree.stages
}

// eventRec converts an event to its serializable record, registering the
// constituent tuples with tt.
func eventRec(ev *event, tt *fault.TupleTable) fault.EventRec {
	r := fault.EventRec{
		TS:       ev.ts,
		Deadline: ev.deadline,
		Delay:    ev.delay,
		Ord:      ev.ord,
		Key:      ev.key,
		Parts:    make([]int32, len(ev.parts)),
	}
	for i, t := range ev.parts {
		r.Parts[i] = tt.ID(t)
	}
	return r
}

// recEvent rebuilds an event from its record.
func recEvent(r fault.EventRec, ta *fault.TupleArena) *event {
	ev := &event{
		ts:       r.TS,
		deadline: r.Deadline,
		delay:    r.Delay,
		ord:      r.Ord,
		key:      r.Key,
		parts:    make([]*stream.Tuple, len(r.Parts)),
	}
	for i, id := range r.Parts {
		ev.parts[i] = ta.Tuple(id)
	}
	return ev
}

// canonicalRecs sorts evs (the caller's own copy) into (ts, ord) order — ord
// is unique within a stage, so the order is total — and converts them.
func canonicalRecs(evs []*event, tt *fault.TupleTable) []fault.EventRec {
	slices.SortFunc(evs, func(a, b *event) int { return cmp.Or(cmp.Compare(a.ts, b.ts), cmp.Compare(a.ord, b.ord)) })
	out := make([]fault.EventRec, len(evs))
	for i, ev := range evs {
		out[i] = eventRec(ev, tt)
	}
	return out
}

// State captures the tree's state. It quiesces the sharded stages first;
// for the capture to be bit-for-bit resumable the tree must already be at a
// release-pipeline-empty point — any adaptation boundary (after
// Quiesce) or before the first Push qualifies, and the supervised
// runtime only checkpoints there.
func (t *PlanTree) State(tt *fault.TupleTable) TreeState {
	if t.finished {
		panic("dist: State on a finished PlanTree")
	}
	t.Quiesce()
	st := TreeState{Results: t.results}
	st.Leaves = make([]kslack.State, len(t.leaves))
	for i, lf := range t.leaves {
		st.Leaves[i] = lf.ks.State(tt)
	}
	st.Stages = make([]StageState, len(t.stages))
	for i, s := range t.stages {
		sn := s.sync.Capture()
		ss := StageState{TSync: sn.TSync, Ord: s.ord, OnT: s.onT, SyncBuf: canonicalRecs(sn.Held, tt)}
		copy(ss.Open[:], sn.Open)
		if s.sh == nil {
			for sd := 0; sd < 2; sd++ {
				ss.Win[sd] = canonicalRecs(s.win[sd].appendLive(nil), tt)
			}
		} else {
			for sd := 0; sd < 2; sd++ {
				ss.Rings[sd] = append([]stream.Time(nil), s.sh.rings[sd].Live()...)
				// Band replicas put the same event in several worker
				// windows; serialize the deduplicated global contents.
				seen := map[*event]bool{}
				var evs []*event
				for _, w := range s.sh.workers {
					for _, ev := range w.win[sd].appendLive(nil) {
						if !seen[ev] {
							seen[ev] = true
							evs = append(evs, ev)
						}
					}
				}
				ss.ShWin[sd] = canonicalRecs(evs, tt)
			}
		}
		st.Stages[i] = ss
	}
	return st
}

// Restore loads a captured state into a freshly constructed PlanTree (same
// condition, windows and shape). Unsharded windows are rebuilt by direct
// re-insertion and buffered Synchronizer events are loaded onto their
// side's lane (syncer.Sync.Load) — NOT through pstage.push, which would
// re-stamp arrival orders and re-run the Synchronizer. Sharded windows re-enter through the
// insert-only routing path under the restored stage watermark: routing is a
// pure function of the event key, so replicas land on the workers they
// occupied before, and the in-scope filter drops only entries that were
// already expired-but-unpurged — invisible to every future probe
// (DESIGN.md §10).
func (t *PlanTree) Restore(st TreeState, ta *fault.TupleArena) {
	t.results = st.Results
	for i, lf := range t.leaves {
		lf.ks.Restore(st.Leaves[i], ta)
	}
	for i, s := range t.stages {
		ss := st.Stages[i]
		s.ord = ss.Ord
		s.onT = ss.OnT
		held := make([]*event, len(ss.SyncBuf))
		for j, r := range ss.SyncBuf {
			held[j] = recEvent(r, ta)
		}
		s.sync.Load(syncer.Snapshot[*event]{TSync: ss.TSync, Open: ss.Open[:], Held: held}, s.sideOf)
		if s.sh == nil {
			for sd := 0; sd < 2; sd++ {
				for _, r := range ss.Win[sd] {
					s.win[sd].insert(recEvent(r, ta))
				}
			}
			continue
		}
		for sd := 0; sd < 2; sd++ {
			for _, d := range ss.Rings[sd] {
				s.sh.rings[sd].Insert(d)
			}
			for _, r := range ss.ShWin[sd] {
				s.sh.route(shard.Msg[*event]{Item: recEvent(r, ta), WM: s.onT, Side: uint8(sd), Kind: shard.Insert})
			}
		}
		// Wait for the re-routed inserts to land before accepting input.
		s.sh.pool.Sync()
	}
}

// AdaptiveTreeState is the serializable snapshot of an AdaptivePlanTree:
// the tree plus the feedback runtime.
type AdaptiveTreeState struct {
	Tree TreeState
	Loop feedback.State
}

// State captures the adaptive executor's state; the same quiesced-point
// contract as PlanTree.State applies.
func (a *AdaptivePlanTree) State(tt *fault.TupleTable) AdaptiveTreeState {
	return AdaptiveTreeState{
		Tree: a.PlanTree.State(tt),
		Loop: a.loop.State(),
	}
}

// Restore loads a captured state into a freshly constructed
// AdaptivePlanTree (same condition, windows, shape and config). The decided
// per-leaf buffer sizes live inside the kslack states, so no K re-apply is
// needed.
func (a *AdaptivePlanTree) Restore(st AdaptiveTreeState, ta *fault.TupleArena) {
	a.PlanTree.Restore(st.Tree, ta)
	a.loop.Restore(st.Loop)
}

// Abandon stops the tree's shard workers without flushing or emitting — the
// teardown path for a crashed tree a supervisor is about to replace. Safe
// after a contained worker failure: drain-mode workers keep acknowledging
// barriers and exit when their channels close. It must not gate on
// t.finished: Finish sets that flag before its flush cascade, which can
// then panic on a pending worker failure — so Abandon always stops the
// shards, relying on the idempotent Pool.Close. The tree counts as
// finished afterwards; further Push/Finish calls hit the lifecycle panics.
func (t *PlanTree) Abandon() {
	t.finished = true
	for _, s := range t.stages {
		if s.sh != nil {
			s.sh.pool.Close()
		}
	}
}

// Abandon tears down the adaptive tree (see PlanTree.Abandon).
func (a *AdaptivePlanTree) Abandon() {
	a.loop.Close()
	a.PlanTree.Abandon()
}
