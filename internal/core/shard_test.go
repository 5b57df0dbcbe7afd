package core

import (
	"math/rand"
	"repro/internal/leakcheck"
	"testing"

	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/stream"
)

// TestPipelineShardedCounts: the count sink and Results() agree on the
// sharded path, and sharding does not disturb Pushed().
func TestPipelineShardedCounts(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(3))
	in := difftest.Arrivals(rng, 3, 3000)
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
