package shard

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"repro/internal/leakcheck"
	"slices"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/join"
	"repro/internal/stream"
)

// TestShardedDeterministicAcrossRuns: two identical sharded runs must
// produce identical merged sequences (results in the same order), for
// every mode — the merge is deterministic, not merely multiset-equal.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	leakcheck.Check(t)
	for name, mk := range difftest.Conds(3, false) {
		t.Run(name, func(t *testing.T) {
			w := []stream.Time{150, 150, 150}
			run := func() *difftest.Run {
				rng := rand.New(rand.NewSource(99))
				seq := difftest.GenSeq(rng, 3, 800, 150)
				r := difftest.NewRun()
				r.Order = []difftest.Key{}
				rt := New(Config{N: 4, Cond: mk(), Windows: w, Materialize: true})
				for _, e := range seq {
					rt.Route(e)
				}
				rt.FlushInterval(nil, r.Emit)
				rt.Close()
				return r
			}
			difftest.Compare(t, name, run(), run())
		})
	}
}

// TestReplicaOnlyShardStaysBounded: a shard that receives only insert
// messages (band ±Δ replicas under key skew) must still expire its
// windows; window cardinality is bounded by the logical window extent.
func TestReplicaOnlyShardStaysBounded(t *testing.T) {
	leakcheck.Check(t)
	op := join.New(join.EquiChain(2, 0), []stream.Time{100, 100})
	for i := 0; i < 5000; i++ {
		wm := stream.Time(1000 + i)
		op.InsertAt(&stream.Tuple{TS: wm, Seq: uint64(i), Src: 0, Attrs: []float64{1}}, wm)
	}
	if n := op.WindowLen(0); n > 101 {
		t.Fatalf("insert-only window grew to %d tuples; want ≤ window extent", n)
	}
}

// TestRouteAfterClosePanics: a sharded run cannot be restarted.
func TestRouteAfterClosePanics(t *testing.T) {
	leakcheck.Check(t)
	rt := New(Config{N: 2, Cond: join.EquiChain(2, 0), Windows: []stream.Time{100, 100}})
	rt.Route(&stream.Tuple{TS: 1, Attrs: []float64{1}})
	rt.FlushInterval(nil, nil)
	rt.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Route after Close must panic")
		}
	}()
	rt.Route(&stream.Tuple{TS: 2, Attrs: []float64{1}})
}

// TestEnableMaterializeAfterStartPanics: installing a sink mid-run would
// lose the results already counted on the fast path.
func TestEnableMaterializeAfterStartPanics(t *testing.T) {
	leakcheck.Check(t)
	rt := New(Config{N: 2, Cond: join.EquiChain(2, 0), Windows: []stream.Time{100, 100}})
	defer rt.Close()
	rt.Route(&stream.Tuple{TS: 1, Attrs: []float64{1}})
	defer func() {
		if recover() == nil {
			t.Fatal("EnableMaterialize after start must panic")
		}
	}()
	rt.EnableMaterialize()
}

// TestShardLoadsSpread sanity-checks that hash partitioning actually
// spreads an equi workload over the shards.
func TestShardLoadsSpread(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(5))
	rt := New(Config{N: 4, Cond: join.EquiChain(2, 0), Windows: []stream.Time{200, 200}})
	for _, e := range difftest.GenSeq(rng, 2, 4000, 200) {
		rt.Route(e)
	}
	rt.FlushInterval(nil, nil)
	loads := rt.ShardLoads()
	rt.Close()
	busy := 0
	for _, l := range loads {
		if l > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Fatalf("expected ≥3 of 4 shards busy, loads = %v", loads)
	}
}

// TestPartitionRuleTable pins the one partition rule on both of its
// callers: the flat router (Observe/RouteOnly, also internal/net's
// session) and a sharded tree stage, which routes its probe key through
// Rule.Route directly. NaN keys go to the worker of bits 0, ±0
// to one worker, and every band partner's owner holds a replica — at
// ε = 0, at keys of ±1e308 and ±Inf, and at an ε that overflows the cell
// width. It extends TestBandHugeKeySaturation from the flat operator to
// the rule both callers share.
func TestPartitionRuleTable(t *testing.T) {
	leakcheck.Check(t)
	negZero := math.Copysign(0, -1)
	// 1.75 | 2.25 and 3.5e300 | 4.5e300 straddle a cell edge at ε = 0.5 and
	// ε = 1e300: only the +Δ replica puts the left key on the right one's
	// owner.
	keys := []float64{0, negZero, 1, -1, 1.75, 2.25, 2.5, 4e15 - 0.5, 4e15 + 0.5,
		3.5e300, 4.5e300, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	w := []stream.Time{100, 100}
	for _, n := range []int{2, 3, 8} {
		rule := NewRule(n, 0)
		flat := NewRouter(n, join.EquiChain(2, 0), w, nil)
		for _, k := range keys {
			_, owner, _ := flat.RouteOnly(&stream.Tuple{Src: 1, Attrs: []float64{k}})
			if want, _ := rule.Route(k); owner != want {
				t.Fatalf("n=%d key %v: flat router owner %d, stage rule %d", n, k, owner, want)
			}
		}
		nan, _ := rule.Route(math.NaN())
		if want := int(index.Mix64(0) % uint64(n)); nan != want {
			t.Errorf("n=%d: NaN key owned by %d, want the worker of bits 0 (%d)", n, nan, want)
		}
		pos, _ := rule.Route(0)
		if neg, _ := rule.Route(negZero); pos != neg {
			t.Errorf("n=%d: +0 and −0 owned by %d and %d", n, pos, neg)
		}
		for _, eps := range []float64{0, 0.5, 1e300, 1e308, math.MaxFloat64} {
			rule := NewRule(n, eps)
			flat := NewRouter(n, join.Cross(2).Band(0, 0, 1, 0, eps), w, nil)
			span := func(k float64) []int {
				owner, reps := rule.Route(k)
				return append([]int{owner}, reps...)
			}
			for _, a := range keys {
				_, fo, freps := flat.RouteOnly(&stream.Tuple{Src: 0, Attrs: []float64{a}})
				if got, want := append([]int{fo}, freps...), span(a); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("n=%d ε=%v key %v: flat router span %v, stage rule %v", n, eps, a, got, want)
				}
				for _, b := range keys {
					if d := a - b; !(d >= -eps && d <= eps) {
						continue // not band partners
					}
					if owner, _ := rule.Route(b); !slices.Contains(span(a), owner) {
						t.Errorf("n=%d ε=%v: partner %v's owner %d misses %v's span %v", n, eps, b, owner, a, span(a))
					}
				}
			}
		}
	}
}

// TestShardReleaseSurfacesEarliestFailure holds a flat shard:2 runtime to
// the pool's failure rule (internal/dist's test of the same name holds a
// tree stage to it): whatever the order of the failing steps, the next
// barrier surfaces a *fault.WorkerError, promptly and before any result of
// the interval is emitted. A nil-tuple message fails a real operator step.
func TestShardReleaseSurfacesEarliestFailure(t *testing.T) {
	leakcheck.Check(t)
	type failAt struct {
		w int
		m Msg[*stream.Tuple]
	}
	probe := func(w, idx int) failAt { return failAt{w, Msg[*stream.Tuple]{Kind: Probe, Idx: idx}} }
	insert := func(w int) failAt { return failAt{w, Msg[*stream.Tuple]{Kind: Insert}} }
	for name, fails := range map[string][2]failAt{
		"later probe first":       {probe(1, 30), probe(0, 10)},
		"insert after a probe":    {probe(1, 30), insert(0)},
		"earlier probe first":     {probe(0, 10), probe(1, 30)},
		"insert before any probe": {insert(0), probe(1, 30)},
	} {
		var got int
		rt := New(Config{N: 2, Cond: join.EquiChain(2, 0), Windows: []stream.Time{100, 100}, Materialize: true, BatchSize: 4})
		flush := func() { rt.FlushInterval(nil, func(stream.Result) { got++ }) }
		route := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				rt.Route(&stream.Tuple{TS: stream.Time(i), Seq: uint64(i), Src: i % 2, Attrs: []float64{float64(i / 2 % 3)}})
			}
		}
		route(0, 40)
		flush()
		before := got
		if before == 0 {
			t.Fatal("degenerate workload: no results before the failing interval")
		}
		route(40, 60)
		rt.pool.Send(fails[0].w, fails[0].m)
		route(60, 80)
		rt.pool.Send(fails[1].w, fails[1].m)
		route(80, 100)
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			flush()
		}()
		select {
		case r := <-done:
			var we *fault.WorkerError
			if err, ok := r.(error); !ok || !errors.As(err, &we) {
				t.Errorf("%s: barrier surfaced %v, want a *fault.WorkerError", name, r)
			}
			if got != before {
				t.Errorf("%s: %d results of the failed interval were emitted", name, got-before)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: barrier blocked on a worker failure", name)
		}
		rt.Close()
	}
}
