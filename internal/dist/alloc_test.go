package dist

import (
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/stream"
)

// TestRetainedPartialsStayValid keeps every Partial the root stage delivers
// over the first half of a run, pushes the rest, and checks each retained
// Parts slice against the condition and the src:seq signature it had on
// delivery — the reused root event or a slab block handed out twice fails
// it — and that appending to a retained slice does not write into its
// neighbour: the stream.Result.Tuples contract, on the tree.
func TestRetainedPartialsStayValid(t *testing.T) {
	in := workload(3, 1500, 23, 40)
	cond := join.EquiChain(3, 0)
	type kept struct {
		p   Partial
		key difftest.Key
	}
	var all []kept
	retain := true
	w := []stream.Time{stream.Second, stream.Second, stream.Second}
	tree := newKTree(cond, w, Spine(3), 500, func(p Partial) {
		if retain {
			all = append(all, kept{p, difftest.KeyOf(p.Parts)})
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
	intruder := &stream.Tuple{Src: 9}
	for _, k := range all {
		_ = append(k.p.Parts, intruder) // must copy, not write into the next result's slot
	}
	for i, k := range all {
		if got := difftest.KeyOf(k.p.Parts); got != k.key {
			t.Fatalf("result %d changed after delivery: %s, was %s", i, got, k.key)
		}
		if !cond.Matches(k.p.Parts) {
			t.Fatalf("result %d (%s) no longer satisfies the condition", i, k.key)
		}
	}
}

// TestTreeSteadyStateAllocs: a warmed unsharded 3-way spine with a sink
// allocates only the blocks its delivered results are carved from — at most
// one per ⌊64/m⌋ results — and nothing at all on the way there: K-slack,
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
			budget := 0.0
			if c.offset == 0 {
				if results < perRun/2 {
					t.Fatalf("%.0f results per %d tuples; the feed no longer exercises delivery", results, perRun)
				}
				budget = results/float64(64/m) + 1
			} else if results != 0 {
				t.Fatalf("a disjoint key range derived %.0f results", results)
			}
			t.Logf("%v allocations per %d tuples and %.0f delivered results (budget %.1f)", allocs, perRun, results, budget)
			if allocs > budget {
				t.Fatalf("%v allocations per %d tuples and %.0f delivered results, want ≤ %.1f", allocs, perRun, results, budget)
			}
		})
	}
}
