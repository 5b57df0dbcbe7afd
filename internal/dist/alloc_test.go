package dist

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/stream"
)

// TestRetainedPartialsStayValid keeps a copy of every Partial the root
// stage delivers over the first half of a run, pushes the rest, and checks
// each copy against the condition and the src:seq signature it had on
// delivery. The delivered Parts themselves are borrowed (the
// stream.Result contract, on the tree): every one is the root's single
// reused slice, len == cap == m, so an append copies instead of writing
// past it.
func TestRetainedPartialsStayValid(t *testing.T) {
	in := workload(3, 1500, 23, 40)
	cond := join.EquiChain(3, 0)
	type kept struct {
		parts []*stream.Tuple
		key   difftest.Key
	}
	var all []kept
	var borrowed **stream.Tuple // &Parts[0] of the first delivery
	retain := true
	w := []stream.Time{stream.Second, stream.Second, stream.Second}
	tree := newKTree(cond, w, Spine(3), 500, func(p Partial) {
		if len(p.Parts) != 3 || cap(p.Parts) != 3 {
			t.Fatalf("Parts has len %d, cap %d, want 3 and 3", len(p.Parts), cap(p.Parts))
		}
		if borrowed == nil {
			borrowed = &p.Parts[0]
		} else if &p.Parts[0] != borrowed {
			t.Fatal("the root delivered a second Parts slice, want its one reused slice")
		}
		if retain {
			all = append(all, kept{slices.Clone(p.Parts), difftest.KeyOf(p.Parts)})
		}
	})
	for i, e := range in {
		if i == len(in)/2 {
			retain = false
		}
		tree.Push(e)
	}
	tree.Finish()
	if len(all) < 1000 {
		t.Fatalf("only %d results retained: the feed does not exercise delivery", len(all))
	}
	for i, k := range all {
		if got := difftest.KeyOf(k.parts); got != k.key {
			t.Fatalf("result %d changed after delivery: %s, was %s", i, got, k.key)
		}
		if !cond.Matches(k.parts) {
			t.Fatalf("result %d (%s) no longer satisfies the condition", i, k.key)
		}
	}
}

// TestTreeSteadyStateAllocs: a warmed unsharded 3-way spine with a sink
// allocates nothing, delivering or not — the sink borrows the root's one
// reused result — and nothing on the way there either: K-slack,
// the stage lanes and late heaps, the deadline runs and late heaps, the
// event arenas and the hash indexes (whose buckets empty and refill as keys
// leave and re-enter the windows) all run inside their high-water marks.
// One tuple in four arrives up to 300 ms late against K = 100 ms, so the
// late heaps take part. The "no results" feed moves stream 2 to a key range
// of its own: stage 0 still derives partials into stage 1's arena, windows
// and Synchronizer, the root derives nothing, and the count must be exactly
// zero.
func TestTreeSteadyStateAllocs(t *testing.T) {
	const m, lap = 3, 3 << 12 // a lap is whole ticks, so ring slot i always feeds stream i%m
	for _, c := range []struct {
		name   string
		offset float64 // added to stream 2's keys
	}{{"joining", 0}, {"no results", 1000}} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			ring := make([]stream.Tuple, lap)
			for i := range ring {
				ring[i].Attrs = []float64{float64(rng.Intn(100)) + c.offset*float64(i%m/2)}
			}
			late := make([]stream.Time, lap)
			for i := range late {
				if rng.Intn(4) == 0 {
					late[i] = stream.Time(rng.Intn(300))
				}
			}
			var delivered int64
			w := []stream.Time{stream.Second, stream.Second, stream.Second}
			tree := newKTree(join.EquiChain(m, 0), w, Spine(m), 100, func(Partial) { delivered++ })
			n := 0
			push := func(count int) {
				for ; count > 0; count-- {
					e := &ring[n%lap]
					e.Src, e.Seq = n%m, uint64(n)
					e.TS = stream.Time(n/m)*10 - late[n%lap] + stream.Second
					tree.Push(e)
					n++
				}
			}
			push(4 * lap)
			const runs, perRun = 10, 3000
			before := delivered
			allocs := testing.AllocsPerRun(runs, func() { push(perRun) })
			// AllocsPerRun makes one extra warm-up call.
			results := float64(delivered-before) / (runs + 1)
			if c.offset == 0 {
				if results < perRun/2 {
					t.Fatalf("%.0f results per %d tuples; the feed no longer exercises delivery", results, perRun)
				}
			} else if results != 0 {
				t.Fatalf("a disjoint key range derived %.0f results", results)
			}
			if allocs != 0 {
				t.Fatalf("%v allocations per %d tuples and %.0f delivered results, want 0", allocs, perRun, results)
			}
		})
	}
}
