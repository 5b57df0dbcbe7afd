package dist

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/leakcheck"
	"repro/internal/shard"
	"repro/internal/stream"
)

func sharded(n int, s *Shape) *Shape { s.Shards = n; return s }
func leaf(s int) *Shape              { return &Shape{Stream: s} }
func branch(l, r *Shape) *Shape      { return &Shape{Left: l, Right: r} }

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
	pt := NewPlanTree(join.EquiChain(2, 0), []stream.Time{100, 100}, Spine(2), nil)
	pt.Input(0)(&stream.Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
	pt.Finish()
	for name, f := range map[string]func(){
		"State after Finish": func() { pt.State(fault.NewTupleTable()) },
		"double Finish":      pt.Finish,
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
		pt := NewPlanTree(join.EquiChain(2, 0), []stream.Time{100, 100}, sharded(2, branch(leaf(0), leaf(1))), func(Partial) { got++ })
		push := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pt.Input(i % 2)(&stream.Tuple{TS: stream.Time(i), Seq: uint64(i), Src: i % 2, Attrs: []float64{float64(i / 2 % 3)}})
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
