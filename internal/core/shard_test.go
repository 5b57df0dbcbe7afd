package core

import (
	"math/rand"
	"repro/internal/leakcheck"
	"testing"

	"repro/internal/adapt"
	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/stream"
)

// arrivals builds a raw multi-stream arrival sequence with real disorder,
// as the pipeline sees it (before K-slack).
func arrivals(rng *rand.Rand, m, n int) []*stream.Tuple {
	var out []*stream.Tuple
	ts := stream.Time(2000)
	for i := 0; i < n; i++ {
		ts += stream.Time(rng.Intn(12))
		t := ts
		if rng.Intn(4) == 0 {
			t -= stream.Time(rng.Intn(1500))
			if t < 0 {
				t = 0
			}
		}
		out = append(out, &stream.Tuple{
			TS: t, Seq: uint64(i), Src: rng.Intn(m),
			Attrs: []float64{float64(rng.Intn(10)), float64(rng.Intn(30)) / 3},
		})
	}
	return out
}

func clone(in []*stream.Tuple) []*stream.Tuple {
	out := make([]*stream.Tuple, len(in))
	for i, e := range in {
		cp := *e
		out[i] = &cp
	}
	return out
}

// runCfg pushes the workload through a pipeline and returns the summary
// numbers plus the emitted result-signature multiset.
func runCfg(cfg Config, in []*stream.Tuple) (results int64, avgK float64, adapts int64, multiset map[string]int) {
	multiset = map[string]int{}
	cfg.Emit = func(r stream.Result) { multiset[difftest.Sig(r.Tuples)]++ }
	p := New(cfg)
	for _, e := range clone(in) {
		p.Push(e)
	}
	p.Finish()
	return p.Results(), p.AvgK(), p.Adaptations(), multiset
}

// TestPipelineShardedDifferential: for every policy and condition shape,
// the sharded pipeline must reproduce the single-threaded pipeline's
// results (multiset), adaptation trajectory (AvgK, steps) and counters
// bit-for-bit, at shard counts 1, 2, 4, 8 — the quality-driven feedback
// loop makes one global Same-K decision regardless of sharding.
func TestPipelineShardedDifferential(t *testing.T) {
	leakcheck.Check(t)
	conds := map[string]func() *join.Condition{
		"equi": func() *join.Condition { return join.EquiChain(2, 0) },
		"band": func() *join.Condition { return join.Cross(2).Band(0, 1, 1, 1, 1) },
		"generic": func() *join.Condition {
			return join.Cross(2).Where([]int{0, 1}, func(a []*stream.Tuple) bool {
				return a[0].Attr(0) == a[1].Attr(0)
			})
		},
	}
	policies := map[string]func(Config) Config{
		"model": func(c Config) Config {
			c.Adapt = adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second}
			return c
		},
		"static": func(c Config) Config {
			c.Policy = StaticPolicy(400)
			c.InitialK = 400
			return c
		},
		"maxk": func(c Config) Config { c.Policy = MaxKPolicy(); return c },
	}
	rng := rand.New(rand.NewSource(17))
	in := arrivals(rng, 2, 6000)
	w := []stream.Time{stream.Second, stream.Second}
	for cname, mk := range conds {
		for pname, pc := range policies {
			base := pc(Config{Windows: w, Cond: mk()})
			wantRes, wantK, wantAd, wantSet := runCfg(base, in)
			if wantRes == 0 {
				t.Fatalf("%s/%s: degenerate workload, no results", cname, pname)
			}
			for _, shards := range []int{1, 2, 4, 8} {
				cfg := pc(Config{Windows: w, Cond: mk()})
				cfg.Sharding = Sharding{Shards: shards, BatchSize: 32}
				gotRes, gotK, gotAd, gotSet := runCfg(cfg, in)
				if gotRes != wantRes || gotK != wantK || gotAd != wantAd {
					t.Errorf("%s/%s shards=%d: results %d vs %d, avgK %v vs %v, adapts %d vs %d",
						cname, pname, shards, gotRes, wantRes, gotK, wantK, gotAd, wantAd)
					continue
				}
				if len(gotSet) != len(wantSet) {
					t.Errorf("%s/%s shards=%d: multiset sizes %d vs %d", cname, pname, shards, len(gotSet), len(wantSet))
					continue
				}
				for k, v := range wantSet {
					if gotSet[k] != v {
						t.Errorf("%s/%s shards=%d: multiset diverges at %s (%d vs %d)",
							cname, pname, shards, k, gotSet[k], v)
						break
					}
				}
			}
		}
	}
}

// TestPipelineShardedCounts: the count sink and Results() agree on the
// sharded path, and sharding does not disturb Pushed().
func TestPipelineShardedCounts(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(3))
	in := arrivals(rng, 3, 3000)
	var counted int64
	cfg := Config{
		Windows:    []stream.Time{stream.Second, stream.Second, stream.Second},
		Cond:       join.EquiChain(3, 0),
		Policy:     StaticPolicy(300),
		InitialK:   300,
		Sharding:   Sharding{Shards: 4},
		EmitCounts: func(_ stream.Time, n int64) { counted += n },
	}
	p := New(cfg)
	for _, e := range in {
		p.Push(e)
	}
	p.Finish()
	if counted != p.Results() {
		t.Fatalf("count sink saw %d, Results() = %d", counted, p.Results())
	}
	if p.Pushed() != int64(len(in)) {
		t.Fatalf("Pushed() = %d, want %d", p.Pushed(), len(in))
	}
	if p.Results() == 0 {
		t.Fatal("degenerate: no results")
	}
}

// TestPushAfterFinishPanics covers the restart footgun on both paths.
func TestPushAfterFinishPanics(t *testing.T) {
	leakcheck.Check(t)
	for _, shards := range []int{0, 4} {
		cfg := Config{
			Windows:  []stream.Time{100, 100},
			Cond:     join.EquiChain(2, 0),
			Sharding: Sharding{Shards: shards},
		}
		p := New(cfg)
		p.Push(&stream.Tuple{TS: 1, Attrs: []float64{1}})
		p.Finish()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shards=%d: Push after Finish must panic", shards)
				}
			}()
			p.Push(&stream.Tuple{TS: 2, Attrs: []float64{1}})
		}()
	}
}

// TestDoubleFinishPanics: Finish is a terminal transition, not idempotent
// cleanup — a second call indicates a lifecycle bug upstream.
func TestDoubleFinishPanics(t *testing.T) {
	leakcheck.Check(t)
	for _, shards := range []int{0, 2} {
		p := New(Config{
			Windows:  []stream.Time{100, 100},
			Cond:     join.EquiChain(2, 0),
			Sharding: Sharding{Shards: shards},
		})
		p.Finish()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shards=%d: double Finish must panic", shards)
				}
			}()
			p.Finish()
		}()
	}
}

// TestShardedSetEmitAfterStartPanics: installing a sink after the first
// Push would lose the results already counted on the fast path.
func TestShardedSetEmitAfterStartPanics(t *testing.T) {
	leakcheck.Check(t)
	p := New(Config{
		Windows:  []stream.Time{100, 100},
		Cond:     join.EquiChain(2, 0),
		Sharding: Sharding{Shards: 2},
	})
	defer p.Finish()
	p.Push(&stream.Tuple{TS: 1, Attrs: []float64{1}})
	defer func() {
		if recover() == nil {
			t.Fatal("SetEmit after start must panic on the sharded path")
		}
	}()
	p.SetEmit(func(stream.Result) {})
}
