package dist

import (
	"errors"
	"fmt"
	"repro/internal/leakcheck"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/syncer"
)

// mjoinMultiset runs the flat single-operator reference (K-slack →
// Synchronizer → MJoin) and returns the materialized result multiset.
func mjoinMultiset(cond *join.Condition, windows []stream.Time, k stream.Time, in stream.Batch) map[string]int {
	set := map[string]int{}
	op := join.New(cond, windows, join.WithEmit(func(r stream.Result) { set[difftest.Sig(r.Tuples)]++ }))
	sy := syncer.New(cond.M, op.Process)
	ks := make([]*kslack.Buffer, cond.M)
	for i := range ks {
		ks[i] = kslack.New(k, sy.Push)
	}
	for _, e := range in {
		ks[e.Src].Push(e)
	}
	for _, b := range ks {
		b.Flush()
	}
	for i := 0; i < cond.M; i++ {
		sy.Close(i)
	}
	return set
}

// planMultiset runs one shape through the plan tree and returns the result
// multiset.
func planMultiset(cond *join.Condition, windows []stream.Time, shape *Shape, k stream.Time, in stream.Batch) map[string]int {
	set := map[string]int{}
	t := newKTree(cond, windows, shape, k, func(p Partial) { set[difftest.Sig(p.Parts)]++ })
	for _, e := range in {
		t.Push(e)
	}
	t.Finish()
	return set
}

func diffMultisets(t *testing.T, name string, want, got map[string]int) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: degenerate workload, no results", name)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: result %s count %d, want %d", name, k, got[k], v)
			return
		}
	}
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: unexpected result %s ×%d", name, k, v)
			return
		}
	}
}

// shapes4 enumerates the shapes exercised on 4-stream conditions: the
// spine, the balanced bushy tree, a right-heavy bushy tree, and sharded
// variants.
func sharded(n int, s *Shape) *Shape { s.Shards = n; return s }
func leaf(s int) *Shape              { return &Shape{Stream: s} }
func branch(l, r *Shape) *Shape      { return &Shape{Left: l, Right: r} }

// TestPlanTreeSpineAgreesWithMJoin: the plan engine shaped as the left-deep
// spine reproduces the flat reference multiset, including band and generic
// predicates.
func TestPlanTreeSpineAgreesWithMJoin(t *testing.T) {
	leakcheck.Check(t)
	conds := map[string]func() *join.Condition{
		"equichain": func() *join.Condition { return join.EquiChain(3, 0) },
		"band+equi": func() *join.Condition {
			return join.Cross(3).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 6)
		},
		"generic": func() *join.Condition {
			return join.Cross(3).Equi(0, 0, 1, 0).Equi(1, 0, 2, 0).
				Where([]int{0, 2}, func(a []*stream.Tuple) bool {
					return a[0].Attr(1) < a[2].Attr(1)+50
				})
		},
	}
	in := workload(3, 900, 11, 12)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{stream.Second, stream.Second, stream.Second}
	for name, mk := range conds {
		want := mjoinMultiset(mk(), w, maxD, clone(in))
		got := planMultiset(mk(), w, Spine(3), maxD, clone(in))
		diffMultisets(t, "spine/"+name, want, got)
	}
}

// TestPlanTreeBushyAgreesWithMJoin: bushy shapes — both sides of the root
// stage are sub-plans — reproduce the flat reference multiset.
func TestPlanTreeBushyAgreesWithMJoin(t *testing.T) {
	leakcheck.Check(t)
	in := workload(4, 500, 7, 8)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{800, 800, 800, 800}
	cases := []struct {
		name  string
		cond  func() *join.Condition
		shape func() *Shape
	}{
		{"balanced-equichain", func() *join.Condition { return join.EquiChain(4, 0) },
			func() *Shape { return branch(branch(leaf(0), leaf(1)), branch(leaf(2), leaf(3))) }},
		{"right-heavy-equichain", func() *join.Condition { return join.EquiChain(4, 0) },
			func() *Shape { return branch(leaf(0), branch(leaf(1), branch(leaf(2), leaf(3)))) }},
		{"balanced-bandchain", func() *join.Condition {
			return join.Cross(4).Band(0, 1, 1, 1, 9).Equi(1, 0, 2, 0).Band(2, 1, 3, 1, 9)
		}, func() *Shape { return branch(branch(leaf(0), leaf(1)), branch(leaf(2), leaf(3))) }},
		{"bushy-generic", func() *join.Condition {
			return join.EquiChain(4, 0).Where([]int{1, 3}, func(a []*stream.Tuple) bool {
				return a[1].Attr(1) != a[3].Attr(1)
			})
		}, func() *Shape { return branch(branch(leaf(0), leaf(1)), branch(leaf(2), leaf(3))) }},
	}
	for _, tc := range cases {
		want := mjoinMultiset(tc.cond(), w, maxD, clone(in))
		got := planMultiset(tc.cond(), w, tc.shape(), maxD, clone(in))
		diffMultisets(t, "bushy/"+tc.name, want, got)
	}
}

// TestPlanTreeStageShardedAgreesWithMJoin: sharding individual stages —
// including every stage of a star condition that has NO full key class —
// must not change the result multiset, at any shard count.
func TestPlanTreeStageShardedAgreesWithMJoin(t *testing.T) {
	leakcheck.Check(t)
	in := workload(4, 600, 13, 10)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{800, 800, 800, 800}
	star := func() *join.Condition { return join.Star(4, []int{0, 1, 2}, []int{0, 0, 0}) }
	want := mjoinMultiset(star(), w, maxD, clone(in))

	for _, n := range []int{2, 4, 8} {
		spine := sharded(n, branch(sharded(n, branch(sharded(n, branch(leaf(0), leaf(1))), leaf(2))), leaf(3)))
		got := planMultiset(star(), w, spine, maxD, clone(in))
		diffMultisets(t, fmt.Sprintf("star-sharded-%d", n), want, got)
	}

	// Bushy + sharded root over an equichain.
	chain := func() *join.Condition { return join.EquiChain(4, 0) }
	wantChain := mjoinMultiset(chain(), w, maxD, clone(in))
	bushy := sharded(4, branch(sharded(2, branch(leaf(0), leaf(1))), branch(leaf(2), leaf(3))))
	diffMultisets(t, "bushy-sharded", wantChain, planMultiset(chain(), w, bushy, maxD, clone(in)))
}

// TestPlanTreeBandShardedStage: a band-keyed stage partitions by range
// cells with ±eps replica inserts; results must match the flat reference.
func TestPlanTreeBandShardedStage(t *testing.T) {
	leakcheck.Check(t)
	in := workload(2, 900, 19, 30)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{600, 600}
	mk := func() *join.Condition { return join.Cross(2).Band(0, 1, 1, 1, 11) }
	want := mjoinMultiset(mk(), w, maxD, clone(in))
	for _, n := range []int{2, 5} {
		got := planMultiset(mk(), w, sharded(n, branch(leaf(0), leaf(1))), maxD, clone(in))
		diffMultisets(t, fmt.Sprintf("band-sharded-%d", n), want, got)
	}
}

// TestPlanTreeShardUnkeyedPanics: sharding a stage whose cross predicates
// carry no equi/band key must fail loudly, not silently broadcast.
func TestPlanTreeShardUnkeyedPanics(t *testing.T) {
	leakcheck.Check(t)
	cond := join.Cross(2).Where([]int{0, 1}, func([]*stream.Tuple) bool { return true })
	defer func() {
		if recover() == nil {
			t.Fatal("sharding an unkeyed stage must panic")
		}
	}()
	NewPlanTree(cond, []stream.Time{100, 100}, sharded(2, branch(leaf(0), leaf(1))), nil)
}

// TestPlanTreeShapeValidation: shapes must cover every stream exactly once.
func TestPlanTreeShapeValidation(t *testing.T) {
	leakcheck.Check(t)
	w := []stream.Time{100, 100, 100}
	for name, sh := range map[string]*Shape{
		"duplicate": branch(branch(leaf(0), leaf(1)), leaf(1)),
		"missing":   branch(leaf(0), leaf(2)),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s shape must panic", name)
				}
			}()
			NewPlanTree(join.EquiChain(3, 0), w, sh, nil)
		}()
	}
}

// TestPlanTreeLifecyclePanics mirrors the pipeline's lifecycle conventions
// on the tree itself: a second Finish and a capture after Finish panic
// (Push after Finish is the pipeline's to refuse: TestTreeLifecyclePanics).
func TestPlanTreeLifecyclePanics(t *testing.T) {
	leakcheck.Check(t)
	pt := newKTree(join.EquiChain(2, 0), []stream.Time{100, 100}, Spine(2), 0, nil)
	pt.Push(&stream.Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
	pt.Finish()
	for name, f := range map[string]func(){
		"State after Finish": func() { pt.State(fault.NewTupleTable()) },
		"double Finish":      pt.PlanTree.Finish,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			f()
		}()
	}
}

// TestShardReleaseSurfacesEarliestFailure: workers of a sharded stage fail
// in wall-clock order, not probe order, and a failed worker drains its
// queue. Whatever the order of the failing steps — probes early or late in
// the release batch, inserts before or after them — the next barrier must
// surface a *fault.WorkerError, promptly and before any output of the
// batch reaches the parent. A nil-item message fails a real worker step of
// the stage's window pair; internal/shard's test of the same name holds a
// flat shard:2 runtime to the same rule.
func TestShardReleaseSurfacesEarliestFailure(t *testing.T) {
	leakcheck.Check(t)
	type failAt struct {
		w int
		m shard.Msg[*event]
	}
	probe := func(w, idx int) failAt { return failAt{w, shard.Msg[*event]{Kind: shard.Probe, Idx: idx}} }
	insert := func(w int) failAt { return failAt{w, shard.Msg[*event]{Kind: shard.Insert}} }
	for name, fails := range map[string][2]failAt{
		"later probe first":       {probe(1, 30), probe(0, 10)},
		"insert after a probe":    {probe(1, 30), insert(0)},
		"earlier probe first":     {probe(0, 10), probe(1, 30)},
		"insert before any probe": {insert(0), probe(1, 30)},
	} {
		var got int
		pt := newKTree(join.EquiChain(2, 0), []stream.Time{100, 100}, sharded(2, branch(leaf(0), leaf(1))), 0, func(Partial) { got++ })
		push := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pt.Push(&stream.Tuple{TS: stream.Time(i), Seq: uint64(i), Src: i % 2, Attrs: []float64{float64(i / 2 % 3)}})
			}
		}
		push(0, 40)
		pt.Quiesce()
		before := got
		if before == 0 {
			t.Fatal("degenerate workload: no results before the failing batch")
		}
		pool := pt.stages[0].sh.pool
		push(40, 60)
		pool.Send(fails[0].w, fails[0].m)
		push(60, 80)
		pool.Send(fails[1].w, fails[1].m)
		push(80, 100)
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			pt.Quiesce()
		}()
		select {
		case r := <-done:
			var we *fault.WorkerError
			if err, ok := r.(error); !ok || !errors.As(err, &we) {
				t.Errorf("%s: barrier surfaced %v, want a *fault.WorkerError", name, r)
			}
			if got != before {
				t.Errorf("%s: %d outputs of the failed batch were released", name, got-before)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: barrier blocked on a worker failure", name)
		}
		pt.Abandon()
	}
}
