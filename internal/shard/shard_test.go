package shard

import (
	"fmt"
	"math"
	"math/rand"
	"repro/internal/leakcheck"
	"sort"
	"testing"

	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/stream"
)

// tupleRecord is one in-order tuple's feedback-loop record.
type tupleRecord struct {
	ts, delay   stream.Time
	nCross, nOn int64
}

// refRun executes the sequence on a single operator and captures the
// per-tuple productivity records, the out-of-order delays and the result
// multiset — the exact streams the sharded runtime must reproduce.
func refRun(cond *join.Condition, windows []stream.Time, seq []*stream.Tuple) (recs []tupleRecord, ooo []stream.Time, results map[string]int) {
	results = map[string]int{}
	op := join.New(cond, windows,
		join.WithEmit(func(r stream.Result) { results[difftest.Sig(r.Tuples)]++ }),
		join.WithProcessedHook(func(e *stream.Tuple, nCross, nOn int64, inOrder bool) {
			if inOrder {
				recs = append(recs, tupleRecord{e.TS, e.Delay, nCross, nOn})
			} else {
				ooo = append(ooo, e.Delay)
			}
		}))
	for _, e := range seq {
		op.Process(e)
	}
	return recs, ooo, results
}

// shardRun executes the same sequence through a Runtime with n shards,
// flushing at every flushEvery tuples to exercise interval resets, and
// returns the merged streams.
func shardRun(t *testing.T, cond *join.Condition, windows []stream.Time, seq []*stream.Tuple, n, flushEvery int) (recs []tupleRecord, ooo []stream.Time, results map[string]int) {
	t.Helper()
	results = map[string]int{}
	rt := New(Config{
		N: n, Cond: cond, Windows: windows, Materialize: true,
		BatchSize:    7, // tiny batches widen the interleaving surface
		OnOutOfOrder: func(d stream.Time) { ooo = append(ooo, d) },
	})
	flush := func() {
		rt.FlushInterval(func(ts, delay stream.Time, nCross, nOn int64) {
			recs = append(recs, tupleRecord{ts, delay, nCross, nOn})
		}, func(r stream.Result) { results[difftest.Sig(r.Tuples)]++ })
	}
	for i, e := range seq {
		rt.Route(e)
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			flush()
		}
	}
	flush()
	rt.Close()
	return recs, ooo, results
}

// conds enumerates the condition shapes of all three partition modes.
func testConds(m int) map[string]func() *join.Condition {
	cs := map[string]func() *join.Condition{
		"equichain": func() *join.Condition { return join.EquiChain(m, 0) },
		"bandchain": func() *join.Condition {
			c := join.Cross(m)
			for i := 0; i+1 < m; i++ {
				c.Band(i, 1, i+1, 1, 1.5)
			}
			return c
		},
		"band+generic": func() *join.Condition {
			c := join.Cross(m)
			for i := 0; i+1 < m; i++ {
				c.Band(i, 1, i+1, 1, 2)
			}
			return c.Where([]int{0, m - 1}, func(a []*stream.Tuple) bool {
				return math.Abs(a[0].Attr(2)-a[m-1].Attr(2)) < 4
			})
		},
		"generic-only": func() *join.Condition {
			return join.Cross(m).Where([]int{0, m - 1}, func(a []*stream.Tuple) bool {
				return a[0].Attr(0) == a[m-1].Attr(0) // equi the planner can't see
			})
		},
		"equi+band": func() *join.Condition {
			c := join.EquiChain(m, 0)
			c.Band(0, 1, m-1, 1, 3)
			return c
		},
	}
	if m >= 3 {
		// Partial equi cover: S0.a0 = S1.a0 only, the rest generic.
		cs["partial-equi"] = func() *join.Condition {
			return join.Cross(m).Equi(0, 0, 1, 0).
				Where([]int{1, 2}, func(a []*stream.Tuple) bool {
					return a[1].Attr(2) < a[2].Attr(2)+5
				})
		}
	}
	return cs
}

// TestShardedMatchesSingleOperator is the layer-boundary differential: for
// random workloads and every partition mode, the merged per-tuple
// productivity records, out-of-order charges and result multisets of the
// sharded runtime equal a single operator's, for shard counts 1, 2, 4, 8.
func TestShardedMatchesSingleOperator(t *testing.T) {
	leakcheck.Check(t)
	for _, m := range []int{2, 3} {
		for name, mk := range testConds(m) {
			for _, n := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("m=%d/%s/shards=%d", m, name, n), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(31*m + n)))
					w := make([]stream.Time, m)
					for i := range w {
						w[i] = 150
					}
					seq := difftest.GenSeq(rng, m, 1200, 150)
					wantRecs, wantOOO, wantRes := refRun(mk(), w, seq)
					gotRecs, gotOOO, gotRes := shardRun(t, mk(), w, seq, n, 257)

					if len(gotRecs) != len(wantRecs) {
						t.Fatalf("in-order records: %d vs %d", len(gotRecs), len(wantRecs))
					}
					for i := range wantRecs {
						if gotRecs[i] != wantRecs[i] {
							t.Fatalf("record %d: %+v vs %+v", i, gotRecs[i], wantRecs[i])
						}
					}
					if !equalTimes(gotOOO, wantOOO) {
						t.Fatalf("out-of-order delays diverge: %d vs %d entries", len(gotOOO), len(wantOOO))
					}
					if !equalMultiset(gotRes, wantRes) {
						t.Fatalf("result multisets diverge: %d vs %d distinct", len(gotRes), len(wantRes))
					}
				})
			}
		}
	}
}

func equalTimes(a, b []stream.Time) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]stream.Time(nil), a...)
	bs := append([]stream.Time(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func equalMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestShardedDeterministicAcrossRuns: two identical sharded runs must
// produce identical merged sequences (results in the same order), for
// every mode — the merge is deterministic, not merely multiset-equal.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	leakcheck.Check(t)
	for name, mk := range testConds(3) {
		t.Run(name, func(t *testing.T) {
			w := []stream.Time{150, 150, 150}
			run := func() []string {
				rng := rand.New(rand.NewSource(99))
				seq := difftest.GenSeq(rng, 3, 800, 150)
				var order []string
				rt := New(Config{N: 4, Cond: mk(), Windows: w, Materialize: true})
				for _, e := range seq {
					rt.Route(e)
				}
				rt.FlushInterval(nil, func(r stream.Result) { order = append(order, difftest.Sig(r.Tuples)) })
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
	_, _, wantRes := refRun(mk(), w, seq)
	if len(wantRes) != 2 {
		t.Fatalf("reference: want 2 results (one per boundary pair), got %d", len(wantRes))
	}
	for _, n := range []int{2, 4, 8} {
		_, _, gotRes := shardRun(t, mk(), w, seq, n, 0)
		if !equalMultiset(gotRes, wantRes) {
			t.Fatalf("shards=%d: boundary-straddling band pairs lost: %d vs %d results",
				n, len(gotRes), len(wantRes))
		}
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
