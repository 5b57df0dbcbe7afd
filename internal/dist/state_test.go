package dist_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/difftest/table"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/stream"
)

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
	in := difftest.Feed(3, 600, 31, 40, 2000, 100)
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
// results, multiset, K trajectory with every stage's K. Restore rebuilds
// both from the canonical (ts, ord) records: buffered events are loaded onto
// their side's lane through Sync.Load (never through push, which would
// re-stamp ord and re-run the Synchronizer), window entries through insert.
// The feed delays stream 0 most and stream 1 least, so stage 1's raw side runs ahead of its partial
// side and its K-slack's late releases land behind a full lane.
func TestPlanTreeCheckpointAcrossLanes(t *testing.T) {
	in, w := adaptWorkload(5, 4000, [3]stream.Time{2500, 150, 800})
	cfg := func() core.Config {
		return core.Config{Windows: w, Cond: join.EquiChain(3, 0), Adapt: testAdapt, Tree: dist.Spine(3)}
	}
	// Find the boundaries at which the precondition holds.
	var a *core.Pipeline
	var busy []int
	dec := 0
	a = newTree(join.EquiChain(3, 0), w, dist.Spine(3), func(stream.Time, []stream.Time) {
		if dec++; dist.BothLanesBusy(a.Tree()) {
			busy = append(busy, dec)
		}
	}, nil)
	a.Run(in.Clone())
	if len(busy) < 3 {
		t.Fatalf("only boundaries %v of %d hold run and late-heap entries at once; the feed no longer exercises the round trip", busy, dec)
	}

	want := table.Pipeline(cfg(), in)
	for _, cut := range []int{busy[0], busy[len(busy)/2], busy[len(busy)-1]} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			difftest.Compare(t, "lanes-ckpt", want, table.Resumed(t, cfg(), in, table.Cut{Boundary: cut}))
		})
	}
}
