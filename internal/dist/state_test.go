package dist

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/stream"
)

// treeCkpt is the gob envelope of the round-trip tests: the adaptive tree
// state plus the tuple table it references.
type treeCkpt struct {
	Tuples []fault.TupleRec
	State  AdaptiveTreeState
}

func treeGobRoundTrip(t *testing.T, st AdaptiveTreeState, tt *fault.TupleTable) (AdaptiveTreeState, *fault.TupleArena) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(treeCkpt{Tuples: tt.Recs, State: st}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out treeCkpt
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out.State, fault.NewTupleArena(out.Tuples)
}

// treeTrace is everything the differential pins: result count, the full
// K-decision trajectory, and the result multiset.
type treeTrace struct {
	results int64
	ks      []string
	set     map[string]int
}

func runTreeFull(in stream.Batch, cond *join.Condition, w []stream.Time, shape *Shape) treeTrace {
	tr := treeTrace{set: map[string]int{}}
	cfg := AdaptiveConfig{Adapt: testAdapt,
		OnDecide: func(at stream.Time, ks []stream.Time) {
			tr.ks = append(tr.ks, fmt.Sprintf("%v:%v", at, ks))
		}}
	a := NewAdaptivePlanTree(cond, w, shape, cfg, func(p Partial) { tr.set[difftest.Sig(p.Parts)]++ })
	for _, e := range in.Clone() {
		a.Push(e)
	}
	a.Finish()
	tr.results = a.Results()
	return tr
}

// runTreeInterrupted runs until the cutDecision-th adaptation boundary,
// checkpoints there (through a real gob cycle), abandons the first tree as
// a crash would, restores into a fresh tree and replays the remaining
// input.
func runTreeInterrupted(t *testing.T, in stream.Batch, mk func() *join.Condition, w []stream.Time, shape func() *Shape, cutDecision int) treeTrace {
	t.Helper()
	tr := treeTrace{set: map[string]int{}}
	onDecide := func(at stream.Time, ks []stream.Time) {
		tr.ks = append(tr.ks, fmt.Sprintf("%v:%v", at, ks))
	}

	var a *AdaptivePlanTree
	var st AdaptiveTreeState
	var ta *fault.TupleArena
	captured := false
	cfg := AdaptiveConfig{Adapt: testAdapt,
		OnDecide: func(at stream.Time, ks []stream.Time) {
			onDecide(at, ks)
			if len(tr.ks) == cutDecision {
				tt := fault.NewTupleTable()
				st, ta = treeGobRoundTrip(t, a.State(tt), tt)
				captured = true
			}
		}}
	a = NewAdaptivePlanTree(mk(), w, shape(), cfg, func(p Partial) { tr.set[difftest.Sig(p.Parts)]++ })
	work := in.Clone()
	cut := -1
	for i, e := range work {
		a.Push(e)
		if captured {
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		t.Fatalf("cut decision %d never reached", cutDecision)
	}
	// Abandon the first tree mid-run (simulating a crash right after the
	// boundary checkpoint); its shard workers still need to stop.
	a.Abandon()

	b := NewAdaptivePlanTree(mk(), w, shape(), AdaptiveConfig{Adapt: testAdapt, OnDecide: onDecide}, func(p Partial) { tr.set[difftest.Sig(p.Parts)]++ })
	b.Restore(st, ta)
	// An unsharded Restore is an exact re-entry: the restored tree captures
	// the state it was given, registers (the stages' ord counters included)
	// and all. (A sharded stage drops its expired-but-unpurged entries on
	// the way back in.)
	if !b.hasShards {
		tt := fault.NewTupleTable()
		if again, _ := treeGobRoundTrip(t, b.State(tt), tt); !reflect.DeepEqual(again.Tree, st.Tree) {
			t.Errorf("the restored tree's state differs from the checkpoint it was restored from")
		}
	}
	for _, e := range work[cut:] {
		b.Push(e)
	}
	b.Finish()
	tr.results = b.Results()
	return tr
}

func diffTreeTraces(t *testing.T, name string, want, got treeTrace) {
	t.Helper()
	if got.results != want.results {
		t.Errorf("%s: results %d, want %d", name, got.results, want.results)
	}
	if len(got.ks) != len(want.ks) {
		t.Fatalf("%s: %d decisions, want %d", name, len(got.ks), len(want.ks))
	}
	for i := range want.ks {
		if got.ks[i] != want.ks[i] {
			t.Fatalf("%s: decision %d = %s, want %s", name, i, got.ks[i], want.ks[i])
		}
	}
	diffMultisets(t, name, want.set, got.set)
}

// TestPlanTreeCheckpointRestoreDifferential: cutting an adaptive plan-tree
// run at an adaptation boundary, serializing through gob, and resuming in a
// fresh tree must reproduce the uninterrupted run bit-for-bit — result
// multiset, result count, and the complete K-decision trajectory — on
// unsharded trees and at every shard count, for equi- and band-keyed
// stages.
func TestPlanTreeCheckpointRestoreDifferential(t *testing.T) {
	in := workload(3, 3000, 23, 40)
	w := []stream.Time{stream.Second, stream.Second, stream.Second}
	conds := map[string]func() *join.Condition{
		"equichain": func() *join.Condition { return join.EquiChain(3, 0) },
		"band+equi": func() *join.Condition {
			return join.Cross(3).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 6)
		},
	}
	shapeN := func(n int) func() *Shape {
		return func() *Shape {
			inner := branch(leaf(0), leaf(1))
			outer := branch(inner, leaf(2))
			if n > 1 {
				inner.Shards = n
				outer.Shards = n
			}
			return outer
		}
	}
	for name, mk := range conds {
		for _, shards := range []int{1, 2, 4, 8} {
			for _, cutDec := range []int{3, 8} {
				t.Run(fmt.Sprintf("%s/shards%d/cut%d", name, shards, cutDec), func(t *testing.T) {
					want := runTreeFull(in, mk(), w, shapeN(shards)())
					if want.results == 0 || len(want.ks) <= cutDec {
						t.Fatal("degenerate workload for this cut")
					}
					got := runTreeInterrupted(t, in, mk, w, shapeN(shards), cutDec)
					diffTreeTraces(t, "tree-ckpt", want, got)
				})
			}
		}
	}
}

// TestPlanTreeCheckpointRestoreBushy: the same differential on a bushy
// 4-stream shape with a sharded leaf stage and a sharded root — the shape
// whose root stage governs no raw buffer (its K stays pinned 0), and whose
// checkpoint must carry two sub-plan window sets.
func TestPlanTreeCheckpointRestoreBushy(t *testing.T) {
	in := workload(4, 2500, 29, 60)
	w := []stream.Time{stream.Second, stream.Second, stream.Second, stream.Second}
	mk := func() *join.Condition { return join.EquiChain(4, 0) }
	shape := func() *Shape {
		return sharded(4, branch(sharded(2, branch(leaf(0), leaf(1))), branch(leaf(2), leaf(3))))
	}
	want := runTreeFull(in, mk(), w, shape())
	if want.results == 0 || len(want.ks) <= 4 {
		t.Fatal("degenerate workload")
	}
	got := runTreeInterrupted(t, in, mk, w, shape, 4)
	diffTreeTraces(t, "bushy-ckpt", want, got)
}

// treeShedOne runs one shed and returns the Seq of the tuple it evicted
// from the tree's leaf buffers.
func treeShedOne(t *testing.T, tree *PlanTree, shed func() bool) uint64 {
	t.Helper()
	held := func() map[uint64]bool {
		out := map[uint64]bool{}
		for _, lf := range tree.leaves {
			for e := range lf.ks.All() {
				out[e.Seq] = true
			}
		}
		return out
	}
	before := held()
	if !shed() {
		t.Fatal("ShedWorst: nothing buffered")
	}
	after := held()
	if len(after) != len(before)-1 {
		t.Fatalf("ShedWorst dropped %d tuples", len(before)-len(after))
	}
	for seq := range before {
		if !after[seq] {
			return seq
		}
	}
	panic("unreachable")
}

// TestTreeShedWorstIsLayoutFree: a live tree and its State→Restore copy —
// same leaf-buffer content, laid out differently — shed the same tuples in
// the same order. Timestamps are coarsened so (score, delay) ties are the
// rule.
func TestTreeShedWorstIsLayoutFree(t *testing.T) {
	in := workload(3, 600, 31, 40)
	for _, e := range in {
		e.TS -= e.TS % 100
	}
	w := []stream.Time{stream.Second, stream.Second, stream.Second}
	cfg := AdaptiveConfig{Adapt: testAdapt}

	live := NewAdaptivePlanTree(join.EquiChain(3, 0), w, Spine(3), cfg, nil)
	for _, e := range in.Clone() {
		live.Push(e)
	}
	tt := fault.NewTupleTable()
	st, ta := treeGobRoundTrip(t, live.State(tt), tt)
	rest := NewAdaptivePlanTree(join.EquiChain(3, 0), w, Spine(3), cfg, nil)
	rest.Restore(st, ta)
	if n := live.BufferedTuples(); n < 60 {
		t.Fatalf("only %d tuples buffered; the run no longer exercises shedding", n)
	}
	for i := 0; i < 30; i++ {
		if a, b := treeShedOne(t, live.PlanTree, live.ShedWorst), treeShedOne(t, rest.PlanTree, rest.ShedWorst); a != b {
			t.Fatalf("shed %d: live tree evicted seq %d, its restored copy seq %d", i, a, b)
		}
	}
	live.Abandon()
	rest.Abandon()
}

// bothLanesBusy reports whether some unsharded stage of t holds Synchronizer
// events on a lane and on the late heap at once, and some deadline window
// entries on its run and on its late heap at once.
func bothLanesBusy(t *PlanTree) bool {
	syncBoth, winBoth := false, false
	for _, s := range t.stages {
		if s.sh != nil {
			continue
		}
		if late := syncLate(s); late > 0 && s.sync.Len() > late {
			syncBoth = true
		}
		for _, w := range s.win {
			if late := w.byDeadline.Late(); late > 0 && w.len() > late {
				winBoth = true
			}
		}
	}
	return syncBoth && winBoth
}

// TestPlanTreeCheckpointAcrossLanes: a checkpoint taken while a stage
// Synchronizer holds events on a lane *and* on its late heap, and a deadline
// window entries on its run *and* on its late heap, resumes bit-for-bit —
// results, multiset, per-stage K trajectory. Restore rebuilds both from the
// canonical (ts, ord) records: buffered events are loaded onto their side's
// lane through Sync.Load (never through push, which would re-stamp ord and
// re-run the Synchronizer), window entries through insert. The feed delays stream 0
// most and stream 1 least, so stage 1's raw side runs ahead of its partial
// side and its K-slack's late releases land behind a full lane.
func TestPlanTreeCheckpointAcrossLanes(t *testing.T) {
	in, w := adaptWorkload(5, 4000, [3]stream.Time{2500, 150, 800})
	mk := func() *join.Condition { return join.EquiChain(3, 0) }
	shape := func() *Shape { return Spine(3) }

	// Find the boundaries at which the precondition holds.
	var a *AdaptivePlanTree
	var busy []int
	dec := 0
	a = NewAdaptivePlanTree(mk(), w, shape(), AdaptiveConfig{Adapt: testAdapt,
		OnDecide: func(stream.Time, []stream.Time) {
			if dec++; bothLanesBusy(a.PlanTree) {
				busy = append(busy, dec)
			}
		}}, nil)
	for _, e := range in.Clone() {
		a.Push(e)
	}
	a.Finish()
	if len(busy) < 3 {
		t.Fatalf("only boundaries %v of %d hold run and late-heap entries at once; the feed no longer exercises the round trip", busy, dec)
	}

	want := runTreeFull(in, mk(), w, shape())
	if want.results == 0 {
		t.Fatal("degenerate workload: no results")
	}
	for _, cut := range []int{busy[0], busy[len(busy)/2], busy[len(busy)-1]} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			diffTreeTraces(t, "lanes-ckpt", want, runTreeInterrupted(t, in, mk, w, shape, cut))
		})
	}
}
