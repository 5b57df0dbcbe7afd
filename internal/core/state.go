package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/syncer"
)

// State is the serializable snapshot of a Pipeline: the K-slack buffers,
// the feedback loop, and the body — the Synchronizer plus operator windows
// on the single-threaded flat path or router + global windows on the
// sharded one, the stages of a plan tree. Exactly one of Op, Shard and
// Tree is non-nil.
type State struct {
	CurK    stream.Time
	Results int64
	Pushed  int64
	Ks      []kslack.State
	Sync    syncer.State // zero on trees, which have no global Synchronizer
	Loop    feedback.State
	Op      *join.State
	Shard   *shard.State
	Tree    *dist.TreeState
}

// Checkpoint captures the pipeline's state between two Push calls. It
// quiesces first (see Quiesce). On the sharded path the async statistics
// feeder barriers and the current interval flushes mid-stream, which is
// trajectory-safe — the profiler and monitor accumulate sums, so two
// partial flushes feed them exactly what one flush at the boundary would,
// and the flushed results would have been emitted at the boundary anyway,
// in the same (arrival, shard) order. A tree capture is trajectory-exact
// at an adaptation boundary, where the stages are quiesced after the new
// Ks; between boundaries it preserves the result multiset and pins the K
// trajectory from the next boundary on (internal/dist). A failed worker
// surfaces here as a panic, before any state is captured.
func (p *Pipeline) Checkpoint(tt *fault.TupleTable) State {
	if p.finished {
		panic("core: Checkpoint on a finished pipeline")
	}
	p.Quiesce()
	st := State{
		CurK:    p.curK,
		Results: p.results,
		Pushed:  p.pushed,
		Loop:    p.loop.State(),
	}
	for _, k := range p.ks {
		st.Ks = append(st.Ks, k.State(tt))
	}
	switch {
	case p.tree != nil:
		s := p.tree.State(tt)
		st.Tree = &s
	case p.rt != nil:
		s := p.rt.State(tt)
		st.Shard = &s
	default:
		s := p.op.State(tt)
		st.Op = &s
	}
	if p.sync != nil {
		st.Sync = p.sync.State(tt)
	}
	return st
}

// RestoreState loads a captured state into a freshly constructed Pipeline
// (same Config). Afterwards the pipeline accepts Push exactly where the
// checkpointed one left off: replaying the same suffix of arrivals yields
// the same result multiset and the same K trajectory (DESIGN.md §10). A
// state of another body — an in-process operator, a worker runtime or a
// tree — is refused with fault.ErrRestoreMismatch before anything loads.
func (p *Pipeline) RestoreState(st State, ta *fault.TupleArena) error {
	if (st.Tree != nil) != (p.tree != nil) || (st.Shard != nil) != (p.rt != nil) || (st.Op != nil) != (p.op != nil) {
		return fmt.Errorf("%w: the snapshot's join body (operator %t, worker runtime %t, tree %t) is not this pipeline's",
			fault.ErrRestoreMismatch, st.Op != nil, st.Shard != nil, st.Tree != nil)
	}
	p.curK = st.CurK
	p.results = st.Results
	p.pushed = st.Pushed
	for i := range p.ks {
		p.ks[i].Restore(st.Ks[i], ta)
	}
	p.loop.Restore(st.Loop)
	if p.sync != nil {
		p.sync.Restore(st.Sync, ta)
	}
	switch {
	case p.tree != nil:
		p.tree.Restore(*st.Tree, ta)
	case p.rt != nil:
		p.rt.Restore(*st.Shard, ta)
	default:
		p.op.RestoreState(*st.Op, ta)
	}
	return nil
}

// BufferedTuples returns the total number of tuples currently held in the
// K-slack buffers — the bounded-ingest occupancy measure.
func (p *Pipeline) BufferedTuples() int {
	n := 0
	for _, k := range p.ks {
		n += k.Len()
	}
	return n
}

// ShedWorst evicts the buffered tuple with the lowest root-scope
// productivity score (profiler Score; ties broken toward the largest delay,
// then the smallest (TS, Seq), then the first buffer — a function of the
// buffered tuples alone, never of how a buffer lays them out, so shed
// decisions replay identically after a restore) and accounts the drop with
// the feedback loop so the recall estimate reflects it. The root scope is
// the accounting layer for sheds wherever they happen: a tuple dropped at
// any tree leaf never reaches the root, and the root profiler's
// delay-productivity means estimate the complete results it would have
// contributed. Returns false when nothing is buffered.
func (p *Pipeline) ShedWorst() bool {
	root := len(p.leaves) - 1
	var from *kslack.Buffer
	var worst *stream.Tuple
	var worstScore float64
	for _, k := range p.ks {
		for t := range k.All() {
			s := p.loop.Score(root, t.Delay)
			if worst == nil || s < worstScore || (s == worstScore && kslack.ShedBefore(t, worst)) {
				from, worst, worstScore = k, t, s
			}
		}
	}
	if worst == nil {
		return false
	}
	from.Evict(worst)
	p.loop.RecordShed(root, worst.Delay)
	return true
}

// RecallEstimate exposes the loop's run-level recall estimate (produced
// over estimated-true results, shed losses included).
func (p *Pipeline) RecallEstimate() float64 { return p.loop.RecallEstimate() }

// Abandon stops the pipeline's background goroutines without flushing or
// emitting — the teardown path for a crashed pipeline a supervisor is about
// to replace. Safe after a contained worker failure: drain-mode shard
// workers exit when their channels close. It must not gate on p.finished:
// Finish sets that flag before tearing down and can then panic mid-flush
// (a pending worker failure surfaces there), leaving live workers behind a
// true flag — so Abandon always closes, relying on the idempotent
// runtime/loop Close. The pipeline counts as finished afterwards; further
// Push/Finish calls hit the lifecycle panics.
func (p *Pipeline) Abandon() {
	p.finished = true
	p.loop.Close()
	switch {
	case p.tree != nil:
		p.tree.Abandon()
	case p.rt != nil:
		p.rt.Close()
	}
}
