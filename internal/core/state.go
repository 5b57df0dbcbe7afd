package core

import (
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/syncer"
)

// State is the serializable snapshot of a Pipeline: the disorder-handling
// spine (K-slack buffers, Synchronizer), the feedback loop, and the join
// state — operator windows on the single-threaded path, router + global
// windows on the sharded path. Exactly one of Op and Shard is non-nil.
type State struct {
	CurK    stream.Time
	Results int64
	Pushed  int64
	Ks      []kslack.State
	Sync    syncer.State
	Loop    feedback.State
	Op      *join.State
	Shard   *shard.State
}

// Checkpoint captures the pipeline's state between two Push calls. On the
// sharded path it quiesces first: the async statistics feeder barriers and
// the current interval flushes mid-stream. A mid-interval flush is
// trajectory-safe — the profiler and monitor accumulate sums, so two
// partial flushes feed them exactly what one flush at the boundary would,
// and the flushed results would have been emitted at the boundary anyway,
// in the same (arrival, shard) order. A failed worker surfaces here as the
// FlushInterval panic, before any state is captured.
func (p *Pipeline) Checkpoint(tt *fault.TupleTable) State {
	if p.finished {
		panic("core: Checkpoint on a finished pipeline")
	}
	if p.rt != nil {
		p.loop.Sync()
		p.rt.FlushInterval(p.replayTuple, p.cfg.Emit)
	}
	st := State{
		CurK:    p.curK,
		Results: p.results,
		Pushed:  p.pushed,
		Sync:    p.sync.State(tt),
		Loop:    p.loop.State(),
	}
	for _, k := range p.ks {
		st.Ks = append(st.Ks, k.State(tt))
	}
	if p.rt != nil {
		s := p.rt.State(tt)
		st.Shard = &s
	} else {
		s := p.op.State(tt)
		st.Op = &s
	}
	return st
}

// RestoreState loads a captured state into a freshly constructed Pipeline
// (same Config). Afterwards the pipeline accepts Push exactly where the
// checkpointed one left off: replaying the same suffix of arrivals yields
// the same result multiset and the same K trajectory (DESIGN.md §10).
func (p *Pipeline) RestoreState(st State, ta *fault.TupleArena) {
	p.curK = st.CurK
	p.results = st.Results
	p.pushed = st.Pushed
	for i := range p.ks {
		p.ks[i].Restore(st.Ks[i], ta)
	}
	p.sync.Restore(st.Sync, ta)
	p.loop.Restore(st.Loop)
	if p.rt != nil {
		p.rt.Restore(*st.Shard, ta)
	} else {
		p.op.RestoreState(*st.Op, ta)
	}
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

// ShedWorst evicts the buffered tuple with the lowest productivity score
// (profiler Score; ties broken toward the largest delay, then the smallest
// (TS, Seq), then the first buffer — a function of the buffered tuples
// alone, never of how a buffer lays them out, so shed decisions replay
// identically after a restore) and accounts the drop with the feedback
// loop so the recall estimate reflects it. Returns false when nothing is
// buffered.
func (p *Pipeline) ShedWorst() bool {
	var from *kslack.Buffer
	var worst *stream.Tuple
	var worstScore float64
	for _, k := range p.ks {
		for t := range k.All() {
			s := p.loop.Score(0, t.Delay)
			if worst == nil || s < worstScore || (s == worstScore && kslack.ShedBefore(t, worst)) {
				from, worst, worstScore = k, t, s
			}
		}
	}
	if worst == nil {
		return false
	}
	from.Evict(worst)
	p.loop.RecordShed(0, worst.Delay)
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
	if p.rt != nil {
		p.loop.Close()
		p.rt.Close()
	}
}
