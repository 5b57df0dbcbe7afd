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
//     bounded replay of the shell's arrival log, deliveries via the gate's
//     filter for this boundary, and the loop via a K-scope remap of its
//     serialized state.
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
// A result was in flight iff it contains a sub-assignment the boundary
// held; the gate's filter (gate.go) suppresses every other regeneration,
// replayed or deferred, so in-flight ones are delivered exactly once. Stale
// regenerations below any new window scope expire before they can probe.

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

// ErrReplayShallow reports that the arrival log does not reach back to the
// migration horizon — it was pruned past it, or the run just started. The
// old executor is left running; retry at a later boundary once the log has
// deepened.
var ErrReplayShallow = errors.New("plan: replay log does not reach the migration horizon")

// ErrMigrationInterrupted reports that a worker failure interrupted a
// migration and supervision recovered the run on the old shape. Retry at a
// later boundary.
var ErrMigrationInterrupted = errors.New("plan: a worker failure interrupted the migration; the run recovered on the old shape")

// MigrateReport describes one completed (or refused) migration.
type MigrateReport struct {
	FromShape, ToShape string
	// Horizon is the replay horizon H; arrivals with TS ≥ H were replayed.
	Horizon stream.Time
	// Replayed is the number of replayed arrivals.
	Replayed int
	// Delivered counts replay results that were in flight at the boundary
	// and reached the user through the replay; Suppressed counts the
	// regenerations the filter suppressed during the replay only.
	Delivered, Suppressed int64
}

// Migrate moves the running join onto target without stopping the stream:
// capture the boundary, abandon the executor, build target behind the same
// gate, replay the logged arrivals from the horizon with the injector
// paused, and transplant the feedback loop. Under supervision a fresh
// checkpoint of target becomes the recovery point. Call it between two
// pushes — on adaptive shapes right after an adaptation boundary, where the
// executor is quiesced and the K trajectory is at a decision point; a
// Replanner's Step is such a place. On error the old executor keeps
// running. The shell must have been built with a Replanner: only then does
// the log reach back to a migration horizon.
func (s *Supervised) Migrate(target *Graph) (MigrateReport, error) {
	rep := MigrateReport{FromShape: ShapeString(s.g), ToShape: ShapeString(target)}
	switch {
	case s.err != nil:
		return rep, s.err
	case s.finished:
		return rep, fault.ErrClosed
	case s.scf.Replan == nil:
		return rep, errors.New("plan: Migrate needs a shell built with a Replanner — only it keeps the arrival log a migration replays")
	case s.g.Cond != target.Cond:
		return rep, errors.New("plan: Migrate across different Conditions — plan the same condition value")
	case len(s.g.Windows) != len(target.Windows):
		return rep, errors.New("plan: Migrate across different window counts")
	}
	for i, w := range s.g.Windows {
		if w != target.Windows[i] {
			return rep, fmt.Errorf("plan: Migrate across different windows (stream %d: %v vs %v)", i, w, target.Windows[i])
		}
	}
	var err error
	done := false
	if !s.run(func() { err, done = s.migrate(target, &rep), true }, false) {
		return rep, s.err
	}
	if !done {
		return rep, ErrMigrationInterrupted
	}
	return rep, err
}

// migrate is Migrate's body. A fault anywhere in it recovers the old shape:
// graph, recovery point and replay deliveries change only once it is done.
func (s *Supervised) migrate(target *Graph, rep *MigrateReport) error {
	// Capture the boundary state. Checkpoint is non-destructive: it
	// quiesces and flushes pending deliveries but leaves the executor live,
	// so a refusal below is safe.
	st := Checkpoint(s.g, s.cfg, s.ex)
	h, held := migrationHorizon(st.Flat, st.Tuples, s.g)
	rep.Horizon = h
	if h < s.logSince {
		return fmt.Errorf("%w: need arrivals since ts %d, log reaches back to %d", ErrReplayShallow, h, s.logSince)
	}
	if s.inj != nil {
		s.inj.Pause()
		defer s.inj.Resume()
	}
	oldSets := s.ex.Loop().ScopeStreams()
	s.ex.Abandon()

	// Build the new shape behind the gate, under this boundary's filter;
	// hooks stay silent and deliveries wait until the move is complete (the
	// gate re-synthesizes counts for the results it actually delivers).
	s.gate.begin(newFilter(s.now, s.log, h, held))
	s.ex = Build(target, s.cfg)
	rep.Replayed = s.replay(s.log, h)
	// Sharded targets defer deliveries (interval flush, 128-probe release);
	// drain them so the loop transplant below erases what they observed.
	s.ex.Quiesce()

	// Transplant the feedback loop: the old boundary-time state already
	// accounts every replayed arrival exactly once (they all arrived before
	// the boundary), so restoring it over the replay-polluted fresh loop
	// erases the duplicate observations. Per-scope registers remap by
	// governed stream set; scopes with no old counterpart re-derive from
	// the old root scope (the global decision on flat shapes). The Γ′
	// weights need no transplant — the new executor recomputed them from
	// its own stage structure at construction.
	ns := remapFeedback(st.Flat.Loop, oldSets, s.ex.Loop().ScopeStreams())
	s.ex.Loop().Restore(ns)
	s.ex.ApplyKs(ns.Ks)
	s.gate.restart()
	if !s.scf.Unsupervised {
		s.checkpointAs(target) // a built executor always checkpoints
	}
	s.g = target
	rep.Delivered, rep.Suppressed = s.gate.commit()
	s.migrations++
	return nil
}

// migrationHorizon returns H = min(S, min onT, min localT) − maxW − 1 (see
// the package comment) and every sub-assignment the boundary state held:
// K-slack and synchronizer tuples, tree stages' buffered events.
func migrationHorizon(st *core.State, tab []fault.TupleRec, g *Graph) (stream.Time, []heldPart) {
	min := stream.Time(math.MaxInt64)
	upd := func(t stream.Time) {
		if t < min {
			min = t
		}
	}
	var held []heldPart
	hold := func(id int32) member {
		t := &tab[id]
		upd(t.TS)
		return member{t.Src, t.Seq}
	}
	tuples := func(ids []int32) {
		for _, id := range ids {
			held = append(held, heldPart{hold(id)})
		}
	}
	events := func(evs []fault.EventRec) {
		for _, ev := range evs {
			var p heldPart
			for _, id := range ev.Parts {
				if id >= 0 {
					p = append(p, hold(id))
				}
			}
			held = append(held, p)
		}
	}
	for _, k := range st.Ks {
		tuples(k.Buffered)
		upd(k.LocalT)
	}
	tuples(st.Sync.Buffered)
	switch {
	case st.Tree != nil:
		for _, sg := range st.Tree.Stages {
			events(sg.SyncBuf)
			upd(sg.OnT)
		}
	case st.Shard != nil:
		upd(st.Shard.WM)
	default:
		upd(st.Op.OnT)
	}
	if min == math.MaxInt64 { // nothing pushed yet
		return math.MinInt64, held
	}
	return min - maxWindow(g) - 1, held
}

func maxWindow(g *Graph) stream.Time {
	var maxW stream.Time
	for _, w := range g.Windows {
		maxW = max(maxW, w)
	}
	return maxW
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
