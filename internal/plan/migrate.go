package plan

// Live cross-shape plan migration. PR 6's checkpoint/restore machinery is
// deliberately shape-bound: executor state (window layouts, synchronizer
// registers, partial materializations) only means something under the exact
// deployment that produced it, and Restore refuses a signature mismatch.
// Migrate gets from one shape to another by splitting the state differently:
//
//   - The shape-independent LOGICAL state — which raw arrivals exist, which
//     results were already delivered, and the feedback loop's measured
//     statistics — crosses the shape boundary explicitly: arrivals via a
//     bounded replay of the raw input suffix, deliveries via the EmitLog
//     gate, and the loop via a K-scope remap of its serialized state.
//   - The shape-DEPENDENT executor state is not transplanted at all. The
//     new executor rebuilds it by replaying the suffix through its own
//     normal Push path, which reconstructs windows, synchronizer registers
//     and intermediates exactly as an uninterrupted run of the new shape
//     would have built them.
//
// # Why the replay horizon is sound
//
// At the (quiesced) boundary, every result whose completing tuple was
// already processed has been emitted — the flat checkpoint flushes the
// sharded interval and the tree checkpoint drains the release pipeline. A
// result NOT yet delivered therefore has an unprocessed completing tuple:
// it sits in a K-slack buffer or a synchronizer, so its timestamp is ≥ S,
// the minimum timestamp over all unprocessed tuples. Its remaining members
// lie within one pairwise window of it: ≥ S − maxW. Live window contents
// similarly satisfy ts ≥ onT − W. The horizon
//
//	H = min(S, min onT, min localT) − maxW − 1
//
// hence bounds from below (a) every tuple that can still contribute to an
// undelivered result and (b) every live window member. Replaying exactly
// the arrivals with ts ≥ H regenerates all of them. Including min localT
// additionally guarantees the replayed suffix contains each stream's
// maximum-timestamp tuple, so the rebuilt K-slack clocks equal the old
// ones and the release schedule of future arrivals is unchanged.
//
// Results the replay regenerates that the old executor already delivered
// are suppressed by the gate's recorded multiset; results that were in
// flight are delivered exactly once. Stale regenerations below any new
// window scope are expired before they can probe — result-invisible.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/profiler"
	"repro/internal/stream"
)

// ErrReplayShallow reports that the replay log does not reach back to the
// migration horizon — the caller's log was pruned too aggressively (or the
// run just restarted from a snapshot). The old executor is left running;
// retry at a later boundary once the log has deepened.
var ErrReplayShallow = errors.New("plan: replay log does not reach the migration horizon")

// LogComplete is the MigrateOptions.LogSince value for a log holding every
// arrival since the first Push.
const LogComplete = stream.Time(math.MinInt64)

// MigrateOptions carries the migration inputs the runtime owns.
type MigrateOptions struct {
	// Log is the raw input suffix in arrival order. It must contain every
	// arrival with TS ≥ LogSince (later-arriving tuples with older
	// timestamps included).
	Log []*stream.Tuple
	// LogSince is the timestamp horizon the log is complete for; use
	// LogComplete for an unpruned log.
	LogSince stream.Time
	// Gate is the exactly-once delivery gate. It must already be installed
	// as the old executor's emit callback (and will be enforced as the new
	// one's), with the user sink behind it.
	Gate *EmitLog
}

// MigrateReport describes one completed (or refused) migration.
type MigrateReport struct {
	FromShape, ToShape string
	// Horizon is the replay horizon H; arrivals with TS ≥ H were replayed.
	Horizon stream.Time
	// Replayed is the number of replayed arrivals.
	Replayed int
	// Delivered counts replay results that were in flight at the boundary
	// and reached the user through the replay; Suppressed counts
	// regenerations the gate matched against prior deliveries.
	Delivered, Suppressed int64
	// OldResults is the abandoned executor's result counter at the boundary.
	OldResults int64
}

// Migrate moves a running join from oldEx (built from oldG/oldCfg) to a
// fresh executor of newG/newCfg without stopping the stream. It must be
// called between two Push calls — on adaptive shapes, right after an
// adaptation boundary, where the executor is quiesced and the K trajectory
// is at a decision point. On success the old executor is abandoned and the
// returned executor continues the run behind the same delivery gate. On
// error the old executor is untouched and still running.
func Migrate(oldG *Graph, oldCfg ExecConfig, oldEx Executor, newG *Graph, newCfg ExecConfig, opt MigrateOptions) (Executor, MigrateReport, error) {
	rep := MigrateReport{FromShape: ShapeString(oldG), ToShape: ShapeString(newG)}
	if opt.Gate == nil {
		return nil, rep, errors.New("plan: Migrate needs the EmitLog gate the run delivers through")
	}
	if oldG.Cond != newG.Cond {
		return nil, rep, errors.New("plan: Migrate across different Conditions — plan the same condition value")
	}
	if len(oldG.Windows) != len(newG.Windows) {
		return nil, rep, errors.New("plan: Migrate across different window counts")
	}
	for i := range oldG.Windows {
		if oldG.Windows[i] != newG.Windows[i] {
			return nil, rep, fmt.Errorf("plan: Migrate across different windows (stream %d: %v vs %v)", i, oldG.Windows[i], newG.Windows[i])
		}
	}
	// Capture the boundary state. Checkpoint is non-destructive: it
	// quiesces and flushes pending deliveries but leaves the executor live,
	// so every refusal below is safe.
	st, err := Checkpoint(oldG, oldCfg, oldEx)
	if err != nil {
		return nil, rep, err
	}
	h := migrationHorizon(&st, oldG)
	rep.Horizon = h
	if h < opt.LogSince {
		return nil, rep, fmt.Errorf("%w: need arrivals since ts %d, log reaches back to %d", ErrReplayShallow, h, opt.LogSince)
	}
	oldLoop := loopState(&st)
	rep.OldResults = oldEx.Results()
	Abandon(oldEx)

	// Build the new shape behind the same gate; user-facing adaptation and
	// count hooks stay silent during the replay (the gate re-synthesizes
	// counts for the results it actually delivers).
	gate := opt.Gate
	bcfg := newCfg
	bcfg.Emit = gate.Emit
	if inner := newCfg.OnAdapt; inner != nil {
		bcfg.OnAdapt = func(ev core.AdaptEvent) {
			if !gate.Replaying() {
				inner(ev)
			}
		}
	}
	if innerC := newCfg.EmitCounts; innerC != nil {
		bcfg.EmitCounts = func(ts stream.Time, n int64) {
			if !gate.Replaying() {
				innerC(ts, n)
			}
		}
	}
	ex := Build(newG, bcfg)

	gate.BeginReplay()
	for _, t := range opt.Log {
		if t.TS >= h {
			ex.Push(t)
			rep.Replayed++
		}
	}
	// Sharded targets defer deliveries (interval flush, reorder release);
	// drain them through the gate while it still suppresses regenerations.
	quiesceExec(ex)
	rep.Delivered, rep.Suppressed = gate.EndReplay()

	// Transplant the feedback loop: the old boundary-time state already
	// accounts every replayed arrival exactly once (they all arrived before
	// the boundary), so restoring it over the replay-polluted fresh loop
	// erases the duplicate observations. Per-scope registers remap by
	// governed stream set; scopes with no old counterpart re-derive from
	// the old root scope (the global decision on flat shapes). The Γ′
	// weights need no transplant — the new executor recomputed them from
	// its own stage structure at construction.
	if oldLoop != nil {
		if nl := execLoop(ex); nl != nil {
			ns := remapFeedback(*oldLoop, scopeStreamSets(oldG), scopeStreamSets(newG))
			nl.Restore(ns)
			applyKs(ex, ns.Ks)
		}
	}
	return ex, rep, nil
}

// migrationHorizon computes H = min(S, min onT, min localT) − maxW − 1 from
// the captured boundary state; see the package comment for the soundness
// argument.
func migrationHorizon(st *ExecState, g *Graph) stream.Time {
	min := stream.Time(math.MaxInt64)
	upd := func(t stream.Time) {
		if t < min {
			min = t
		}
	}
	tupTS := func(id int32) {
		if id >= 0 {
			upd(st.Tuples[id].TS)
		}
	}
	ids := func(ids []int32) {
		for _, id := range ids {
			tupTS(id)
		}
	}
	events := func(evs []fault.EventRec) {
		for _, ev := range evs {
			ids(ev.Parts)
		}
	}
	switch {
	case st.Flat != nil:
		for _, k := range st.Flat.Ks {
			ids(k.Buffered)
			upd(k.LocalT)
		}
		ids(st.Flat.Sync.Buffered)
		if st.Flat.Shard != nil {
			upd(st.Flat.Shard.WM)
		} else {
			upd(st.Flat.Op.OnT)
		}
	default:
		ts := st.Tree
		if st.ATree != nil {
			ts = &st.ATree.Tree
		}
		for _, k := range ts.Leaves {
			ids(k.Buffered)
			upd(k.LocalT)
		}
		for _, sg := range ts.Stages {
			events(sg.SyncBuf)
			upd(sg.OnT)
		}
	}
	var maxW stream.Time
	for _, w := range g.Windows {
		if w > maxW {
			maxW = w
		}
	}
	if min == math.MaxInt64 { // nothing pushed yet
		return math.MinInt64
	}
	return min - maxW - 1
}

// quiesceExec drains an executor's deferred deliveries: the sharded flat
// runtime's pending interval, a tree's release pipeline.
func quiesceExec(ex Executor) {
	switch e := ex.(type) {
	case *flatExec:
		e.p().Quiesce()
	case *treeExec:
		e.tree().Quiesce()
	}
}

// loopState extracts the serialized feedback loop, nil on loop-less
// deployments (static trees).
func loopState(st *ExecState) *feedback.State {
	switch {
	case st.Flat != nil:
		return &st.Flat.Loop
	case st.ATree != nil:
		return &st.ATree.Loop
	}
	return nil
}

// execLoop returns the live feedback loop of a built executor, nil on
// static trees.
func execLoop(ex Executor) *feedback.Loop {
	switch e := ex.(type) {
	case *flatExec:
		return e.p().Loop()
	case *treeExec:
		if e.at != nil {
			return e.at.Loop()
		}
	}
	return nil
}

// applyKs pushes the transplanted per-scope buffer sizes into the K-slack
// buffers; the loop's Restore sets the decision registers but the buffers
// themselves are only resized at boundaries.
func applyKs(ex Executor, ks []stream.Time) {
	switch e := ex.(type) {
	case *flatExec:
		e.p().ApplyK(ks[0])
	case *treeExec:
		e.tree().SetStageK(ks)
	}
}

// scopeStreamSets lists, per decision scope of the shape, the sorted raw
// streams it governs: one global scope on flat shapes, one scope per stage
// in post-order (root last) on trees — mirroring dist's planScopes order.
func scopeStreamSets(g *Graph) [][]int {
	switch root := g.Root.(type) {
	case Flat:
		return [][]int{root.Streams()}
	case Shard:
		if f, ok := root.Child.(Flat); ok {
			return [][]int{f.Streams()}
		}
	}
	var sets [][]int
	var walk func(Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case Shard:
			walk(t.Child)
		case Stage:
			walk(t.Left)
			walk(t.Right)
			sets = append(sets, t.Streams())
		}
	}
	walk(g.Root)
	return sets
}

// remapFeedback rebuilds a serialized loop state for a different scope
// structure. Global registers (schedule anchors, statistics manager, result
// monitor, cumulative recall accounting) transfer verbatim — they are
// shape-independent. Per-scope registers (K, average-K accumulator,
// profiler) match by governed stream set; a new scope with no old
// counterpart re-derives from the old ROOT scope, the coarsest decision
// covering it.
func remapFeedback(old feedback.State, oldSets, newSets [][]int) feedback.State {
	out := old
	out.Ks = make([]stream.Time, len(newSets))
	out.SumK = make([]float64, len(newSets))
	out.Profilers = make([]profiler.State, len(newSets))
	rootIdx := len(oldSets) - 1
	for j, ns := range newSets {
		i := matchStreamSet(oldSets, ns)
		if i < 0 {
			i = rootIdx
		}
		out.Ks[j] = old.Ks[i]
		out.SumK[j] = old.SumK[i]
		out.Profilers[j] = old.Profilers[i]
	}
	return out
}

func matchStreamSet(sets [][]int, want []int) int {
	for i, s := range sets {
		if len(s) != len(want) {
			continue
		}
		eq := true
		for k := range s {
			if s[k] != want[k] {
				eq = false
				break
			}
		}
		if eq {
			return i
		}
	}
	return -1
}
