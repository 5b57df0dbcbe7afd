package core

import (
	"fmt"
	"math/rand"
	"repro/internal/leakcheck"
	"testing"

	"repro/internal/adapt"
	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/stream"
)

// capture points cfg's result sink and adaptation hook at a fresh run.
func capture(cfg *Config) *difftest.Run {
	r := difftest.NewRun()
	r.Ks = []difftest.KStep{}
	cfg.Emit = r.Emit
	cfg.OnAdapt = func(ev AdaptEvent) { r.Adapt(difftest.KStep(ev)) }
	return r
}

// run pushes the workload through a pipeline and captures its results,
// K trajectory and counters.
func run(cfg Config, in stream.Batch) *difftest.Run {
	r := capture(&cfg)
	p := New(cfg)
	for _, e := range in.Clone() {
		p.Push(e)
	}
	p.Finish()
	r.Count, r.AvgK = p.Results(), p.AvgK()
	return r
}

// runInterrupted pushes in[:cut], checkpoints through gob, restores into a
// fresh pipeline, pushes the rest, and returns the combined capture.
func runInterrupted(t *testing.T, cfg Config, in stream.Batch, cut int) *difftest.Run {
	t.Helper()
	r := capture(&cfg)
	p := New(cfg)
	work := in.Clone()
	for _, e := range work[:cut] {
		p.Push(e)
	}
	tt := fault.NewTupleTable()
	st, ta := difftest.GobRoundTrip(t, p.Checkpoint(tt), tt)
	// The first pipeline is abandoned mid-run (simulating a crash after the
	// checkpoint); its shard goroutines still need to stop.
	if p.rt != nil {
		p.rt.Close()
	}
	p.loop.Close()

	q := New(cfg)
	q.RestoreState(st, ta)
	for _, e := range work[cut:] {
		q.Push(e)
	}
	q.Finish()
	r.Count, r.AvgK = q.Results(), q.AvgK()
	return r
}

// TestCheckpointRestoreDifferential: cutting any run at an arbitrary tuple,
// serializing, and resuming in a fresh pipeline must reproduce the
// uninterrupted run bit-for-bit — result multiset, total results, the K
// trajectory and AvgK — on the single-threaded path and at every shard
// count.
func TestCheckpointRestoreDifferential(t *testing.T) {
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
	in := difftest.Arrivals(rand.New(rand.NewSource(7)), 2, 4000)
	ac := adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second}
	for name, mk := range conds {
		for _, shards := range []int{1, 2, 4, 8} {
			for _, cut := range []int{1333, 2000} {
				t.Run(fmt.Sprintf("%s/shards%d/cut%d", name, shards, cut), func(t *testing.T) {
					cfg := func() Config {
						return Config{Windows: []stream.Time{2 * stream.Second, 2 * stream.Second},
							Cond: mk(), Adapt: ac, Sharding: Sharding{Shards: shards}}
					}
					difftest.Compare(t, "resumed run", run(cfg(), in), runInterrupted(t, cfg(), in, cut))
				})
			}
		}
	}
}

// shedOne runs one ShedWorst and returns the Seq of the tuple it evicted.
func shedOne(t *testing.T, p *Pipeline) uint64 {
	t.Helper()
	held := func() map[uint64]bool {
		out := map[uint64]bool{}
		for _, k := range p.ks {
			for e := range k.All() {
				out[e.Seq] = true
			}
		}
		return out
	}
	before := held()
	if !p.ShedWorst() {
		t.Fatal("ShedWorst: nothing buffered")
	}
	after := held()
	for seq := range before {
		if !after[seq] {
			if len(after) != len(before)-1 {
				t.Fatalf("ShedWorst dropped %d tuples", len(before)-len(after))
			}
			return seq
		}
	}
	t.Fatal("ShedWorst evicted nothing")
	return 0
}

// TestShedWorstIsLayoutFree: the shed victim is a function of the buffered
// tuples alone — (score, delay) ties go to the smallest (TS, Seq) — so a
// live buffer and its State→Restore copy, which lay the same tuples out
// differently, evict the same tuple.
func TestShedWorstIsLayoutFree(t *testing.T) {
	cfg := Config{
		Windows:  []stream.Time{2 * stream.Second, 2 * stream.Second},
		Cond:     join.EquiChain(2, 0),
		Adapt:    adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second},
		InitialK: stream.Second,
	}
	restored := func(p *Pipeline) *Pipeline {
		tt := fault.NewTupleTable()
		st, ta := difftest.GobRoundTrip(t, p.Checkpoint(tt), tt)
		q := New(cfg)
		q.RestoreState(st, ta)
		return q
	}

	// Nothing has reached the join, so every score is 0: seq 2 is the lone
	// largest delay, then seqs 0 and 1 tie on score and delay.
	p := New(cfg)
	for i, ts := range []stream.Time{1000, 1900, 1500} {
		p.Push(&stream.Tuple{TS: ts, Seq: uint64(i), Attrs: []float64{1}})
	}
	for _, side := range []*Pipeline{p, restored(p)} {
		for _, want := range []uint64{2, 0, 1} {
			if got := shedOne(t, side); got != want {
				t.Fatalf("shed seq %d, want %d", got, want)
			}
		}
	}

	// Mid-run, coarse delays (many ties), buffers reshuffled by releases.
	in := difftest.Arrivals(rand.New(rand.NewSource(11)), 2, 1500)
	for _, e := range in {
		e.TS -= e.TS % 100
	}
	p = New(cfg)
	for _, e := range in {
		p.Push(e)
	}
	q := restored(p)
	if n := p.BufferedTuples(); n < 50 {
		t.Fatalf("only %d tuples buffered; the run no longer exercises shedding", n)
	}
	for i := 0; i < 50; i++ {
		if live, rest := shedOne(t, p), shedOne(t, q); live != rest {
			t.Fatalf("shed %d: live pipeline evicted seq %d, its restored copy seq %d", i, live, rest)
		}
	}
}
