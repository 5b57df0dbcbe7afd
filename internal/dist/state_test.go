package dist_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/stream"
)

// treeTrace is everything the differential pins: the run (result count
// and multiset) and the full per-stage K-decision trajectory.
type treeTrace struct {
	*difftest.Run
	ks []string
}

func newTreeTrace() treeTrace { return treeTrace{Run: difftest.NewRun()} }

func (tr *treeTrace) decide(at stream.Time, ks []stream.Time) {
	tr.ks = append(tr.ks, fmt.Sprintf("%v:%v", at, ks))
}

func runTreeFull(in stream.Batch, cond *join.Condition, w []stream.Time, shape *dist.Shape) treeTrace {
	tr := newTreeTrace()
	a := newTree(cond, w, shape, tr.decide, tr.Emit)
	a.Run(in.Clone())
	tr.Count = a.Results()
	return tr
}

// runTreeInterrupted runs until the cutDecision-th adaptation boundary,
// checkpoints there (through a real gob cycle), abandons the first tree as
// a crash would, restores into a fresh tree and replays the remaining
// input.
func runTreeInterrupted(t *testing.T, in stream.Batch, mk func() *join.Condition, w []stream.Time, shape func() *dist.Shape, cutDecision int) treeTrace {
	t.Helper()
	tr := newTreeTrace()
	var a *core.Pipeline
	var st core.State
	var ta *fault.TupleArena
	captured := false
	a = newTree(mk(), w, shape(), func(at stream.Time, ks []stream.Time) {
		tr.decide(at, ks)
		if len(tr.ks) == cutDecision {
			tt := fault.NewTupleTable()
			st, ta = difftest.GobRoundTrip(t, a.Checkpoint(tt), tt)
			captured = true
		}
	}, tr.Emit)
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

	b := newTree(mk(), w, shape(), tr.decide, tr.Emit)
	if err := b.RestoreState(st, ta); err != nil {
		t.Fatal(err)
	}
	// An unsharded Restore is an exact re-entry: the restored tree captures
	// the state it was given, registers (the stages' ord counters included)
	// and all. (A sharded stage drops its expired-but-unpurged entries on
	// the way back in.)
	if !b.Tree().Sharded() {
		tt := fault.NewTupleTable()
		if again, _ := difftest.GobRoundTrip(t, b.Checkpoint(tt), tt); !reflect.DeepEqual(again.Tree, st.Tree) {
			t.Errorf("the restored tree's state differs from the checkpoint it was restored from")
		}
	}
	for _, e := range work[cut:] {
		b.Push(e)
	}
	b.Finish()
	tr.Count = b.Results()
	return tr
}

func diffTreeTraces(t *testing.T, name string, want, got treeTrace) {
	t.Helper()
	if len(got.ks) != len(want.ks) {
		t.Fatalf("%s: %d decisions, want %d", name, len(got.ks), len(want.ks))
	}
	for i := range want.ks {
		if got.ks[i] != want.ks[i] {
			t.Fatalf("%s: decision %d = %s, want %s", name, i, got.ks[i], want.ks[i])
		}
	}
	difftest.Compare(t, name, want.Run, got.Run)
}

// TestPlanTreeCheckpointRestoreDifferential: cutting a tree pipeline's
// run at an adaptation boundary, serializing through gob, and resuming in a
// fresh tree must reproduce the uninterrupted run bit-for-bit — result
// multiset, result count, and the complete K-decision trajectory — on
// unsharded trees and at every shard count, for equi- and band-keyed
// stages.
func TestPlanTreeCheckpointRestoreDifferential(t *testing.T) {
	in := dist.Workload(3, 3000, 23, 40)
	w := []stream.Time{stream.Second, stream.Second, stream.Second}
	conds := map[string]func() *join.Condition{
		"equichain": func() *join.Condition { return join.EquiChain(3, 0) },
		"band+equi": func() *join.Condition {
			return join.Cross(3).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 6)
		},
	}
	shapeN := func(n int) func() *dist.Shape {
		return func() *dist.Shape {
			inner := dist.Branch(dist.Leaf(0), dist.Leaf(1))
			outer := dist.Branch(inner, dist.Leaf(2))
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
					if want.Count == 0 || len(want.ks) <= cutDec {
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
	in := dist.Workload(4, 2500, 29, 60)
	w := []stream.Time{stream.Second, stream.Second, stream.Second, stream.Second}
	mk := func() *join.Condition { return join.EquiChain(4, 0) }
	shape := func() *dist.Shape {
		return dist.Sharded(4, dist.Branch(dist.Sharded(2, dist.Branch(dist.Leaf(0), dist.Leaf(1))), dist.Branch(dist.Leaf(2), dist.Leaf(3))))
	}
	want := runTreeFull(in, mk(), w, shape())
	if want.Count == 0 || len(want.ks) <= 4 {
		t.Fatal("degenerate workload")
	}
	got := runTreeInterrupted(t, in, mk, w, shape, 4)
	diffTreeTraces(t, "bushy-ckpt", want, got)
}

// treeShedOne runs one shed and returns the Seq of the tuple it evicted
// from the K-slack buffers, read off the buffers' checkpointed contents.
func treeShedOne(t *testing.T, p *core.Pipeline) uint64 {
	t.Helper()
	held := func() map[uint64]bool {
		out := map[uint64]bool{}
		tt := fault.NewTupleTable()
		for _, k := range p.Checkpoint(tt).Ks {
			for _, id := range k.Buffered {
				out[tt.Recs[id].Seq] = true
			}
		}
		return out
	}
	before := held()
	if !p.ShedWorst() {
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
	in := dist.Workload(3, 600, 31, 40)
	for _, e := range in {
		e.TS -= e.TS % 100
	}
	w := []stream.Time{stream.Second, stream.Second, stream.Second}

	live := newTree(join.EquiChain(3, 0), w, dist.Spine(3), nil, nil)
	for _, e := range in.Clone() {
		live.Push(e)
	}
	tt := fault.NewTupleTable()
	st, ta := difftest.GobRoundTrip(t, live.Checkpoint(tt), tt)
	rest := newTree(join.EquiChain(3, 0), w, dist.Spine(3), nil, nil)
	if err := rest.RestoreState(st, ta); err != nil {
		t.Fatal(err)
	}
	if n := live.BufferedTuples(); n < 60 {
		t.Fatalf("only %d tuples buffered; the run no longer exercises shedding", n)
	}
	for i := 0; i < 30; i++ {
		if a, b := treeShedOne(t, live), treeShedOne(t, rest); a != b {
			t.Fatalf("shed %d: live tree evicted seq %d, its restored copy seq %d", i, a, b)
		}
	}
	live.Abandon()
	rest.Abandon()
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
	shape := func() *dist.Shape { return dist.Spine(3) }

	// Find the boundaries at which the precondition holds.
	var a *core.Pipeline
	var busy []int
	dec := 0
	a = newTree(mk(), w, shape(), func(stream.Time, []stream.Time) {
		if dec++; dist.BothLanesBusy(a.Tree()) {
			busy = append(busy, dec)
		}
	}, nil)
	a.Run(in.Clone())
	if len(busy) < 3 {
		t.Fatalf("only boundaries %v of %d hold run and late-heap entries at once; the feed no longer exercises the round trip", busy, dec)
	}

	want := runTreeFull(in, mk(), w, shape())
	if want.Count == 0 {
		t.Fatal("degenerate workload: no results")
	}
	for _, cut := range []int{busy[0], busy[len(busy)/2], busy[len(busy)-1]} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			diffTreeTraces(t, "lanes-ckpt", want, runTreeInterrupted(t, in, mk, w, shape, cut))
		})
	}
}
