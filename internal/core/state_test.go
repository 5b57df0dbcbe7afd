package core

import (
	"math/rand"
	"testing"

	"repro/internal/adapt"
	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/stream"
)

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
