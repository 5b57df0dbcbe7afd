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

// routed executes seq through a Runtime with n shards, flushing at every
// flushEvery tuples to exercise interval resets, and returns the merged
// streams — what difftest.Operator captures of a single operator.
func routed(cond *join.Condition, windows []stream.Time, seq []*stream.Tuple, n, flushEvery int) *difftest.Run {
	got := difftest.NewRun()
	rt := New(Config{
		N: n, Cond: cond, Windows: windows, Materialize: true,
		BatchSize:    7, // tiny batches widen the interleaving surface
		OnOutOfOrder: got.OnOutOfOrder,
	})
	for i, e := range seq {
		rt.Route(e)
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			rt.FlushInterval(got.Record, got.Emit)
		}
	}
	rt.FlushInterval(got.Record, got.Emit)
	rt.Close()
	return got
}

// TestShardedMatchesSingleOperator is the layer-boundary differential: for
// random workloads and every partition mode, the merged per-tuple
// productivity records, out-of-order charges and result multisets of the
// sharded runtime equal a single operator's, for shard counts 1, 2, 4, 8.
func TestShardedMatchesSingleOperator(t *testing.T) {
	leakcheck.Check(t)
	for _, m := range []int{2, 3} {
		for name, mk := range difftest.Conds(m, false) {
			for _, n := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("m=%d/%s/shards=%d", m, name, n), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(31*m + n)))
					w := difftest.Windows(m, 150)
					seq := difftest.GenSeq(rng, m, 1200, 150)
					difftest.Compare(t, "", difftest.Operator(mk(), w, seq), routed(mk(), w, seq, n, 257))
				})
			}
		}
	}
}

// TestShardedDeterministicAcrossRuns: two identical sharded runs must
// produce identical merged sequences (results in the same order), for
// every mode — the merge is deterministic, not merely multiset-equal.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	leakcheck.Check(t)
	for name, mk := range difftest.Conds(3, false) {
		t.Run(name, func(t *testing.T) {
			w := []stream.Time{150, 150, 150}
			run := func() []difftest.Key {
				rng := rand.New(rand.NewSource(99))
				seq := difftest.GenSeq(rng, 3, 800, 150)
				var order []difftest.Key
				rt := New(Config{N: 4, Cond: mk(), Windows: w, Materialize: true})
				for _, e := range seq {
					rt.Route(e)
				}
				rt.FlushInterval(nil, func(r stream.Result) { order = append(order, difftest.KeyOf(r.Tuples)) })
				rt.Close()
				return order
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("lengths %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("order diverges at %d: %s vs %s", i, a[i], b[i])
				}
			}
		})
	}
}

// TestBandHugeKeySaturation: band keys near the cell-clamp boundary must
// still meet. A collapse-to-zero clamp once routed the two sides of the
// boundary to unrelated cells, silently dropping their result; the clamp
// must saturate monotonically instead.
func TestBandHugeKeySaturation(t *testing.T) {
	leakcheck.Check(t)
	mk := func() *join.Condition { return join.Cross(2).Band(0, 0, 1, 0, 1) }
	w := []stream.Time{100, 100}
	seq := []*stream.Tuple{
		{TS: 10, Seq: 0, Src: 0, Attrs: []float64{4e15 - 0.5}},
		{TS: 11, Seq: 1, Src: 1, Attrs: []float64{4e15 + 0.5}},
		{TS: 12, Seq: 2, Src: 0, Attrs: []float64{-4e15 - 0.5}},
		{TS: 13, Seq: 3, Src: 1, Attrs: []float64{-4e15 + 0.5}},
		{TS: 14, Seq: 4, Src: 0, Attrs: []float64{math.Inf(1)}},
		{TS: 15, Seq: 5, Src: 1, Attrs: []float64{math.NaN()}},
	}
	want := difftest.Operator(mk(), w, seq)
	if len(want.Results) != 2 {
		t.Fatalf("reference: want 2 results (one per boundary pair), got %d", len(want.Results))
	}
	for _, n := range []int{2, 4, 8} {
		difftest.Compare(t, fmt.Sprintf("shards=%d: boundary-straddling band pairs", n), want, routed(mk(), w, seq, n, 0))
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
