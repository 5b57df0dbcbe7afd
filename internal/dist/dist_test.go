package dist

import (
	"math"
	"slices"
	"testing"

	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/leakcheck"
	"repro/internal/stream"
)

// TestTreeSealsCondition: mutating a condition after compiling it into a
// tree must panic — the stage plans would silently ignore the predicate.
func TestTreeSealsCondition(t *testing.T) {
	leakcheck.Check(t)
	cond := join.Cross(3).Band(0, 1, 1, 1, 9)
	NewPlanTree(cond, []stream.Time{100, 100, 100}, Spine(3), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a tree-compiled condition must panic")
		}
	}()
	cond.Band(1, 1, 2, 1, 9)
}

func TestSinkReceivesCompleteResults(t *testing.T) {
	leakcheck.Check(t)
	var got []Partial
	tree := NewPlanTree(join.EquiChain(2, 0), []stream.Time{stream.Second, stream.Second}, Spine(2),
		func(p Partial) { got = append(got, Partial{p.TS, p.Delay, slices.Clone(p.Parts)}) })
	tree.Input(0)(&stream.Tuple{TS: 1000, Seq: 0, Src: 0, Attrs: []float64{7}})
	tree.Input(1)(&stream.Tuple{TS: 1100, Seq: 1, Src: 1, Attrs: []float64{7}})
	tree.Finish()
	if len(got) != 1 {
		t.Fatalf("sink saw %d results, want 1", len(got))
	}
	r := got[0]
	if r.TS != 1100 || len(r.Parts) != 2 || r.Parts[0].Src != 0 || r.Parts[1].Src != 1 {
		t.Fatalf("bad result %+v", r)
	}
}

// A NaN join attribute must neither match anything nor crash index
// maintenance when the entry expires (regression: remove() used to panic on
// the unreachable NaN map key).
func TestNaNKeyNeverMatchesNorCrashes(t *testing.T) {
	leakcheck.Check(t)
	var results int
	tree := NewPlanTree(join.EquiChain(2, 0), []stream.Time{100, 100}, Spine(2), func(Partial) { results++ })
	for _, e := range []*stream.Tuple{
		{TS: 10, Seq: 0, Src: 0, Attrs: []float64{math.NaN()}},
		{TS: 20, Seq: 1, Src: 1, Attrs: []float64{math.NaN()}},
		{TS: 500, Seq: 2, Src: 0, Attrs: []float64{1}},
		{TS: 510, Seq: 3, Src: 1, Attrs: []float64{1}},
	} {
		tree.Input(e.Src)(e)
	}
	tree.Finish()
	if results != 1 {
		t.Fatalf("results = %d, want 1 (NaN pair must not match)", results)
	}
}

// buffered fronts t's inputs with one K-slack buffer per stream at k, as
// core.Pipeline does without the feedback loop.
func buffered(t *PlanTree, k stream.Time) []*kslack.Buffer {
	ks := make([]*kslack.Buffer, len(t.leaves))
	for i := range ks {
		ks[i] = kslack.New(k, t.Input(i))
	}
	return ks
}

// finish flushes the buffers in front of t, then finishes t.
func finish(t *PlanTree, ks []*kslack.Buffer) {
	for _, b := range ks {
		b.Flush()
	}
	t.Finish()
}

// TestSetKPropagates: with K = 0 the disordered feed loses results; raising
// K to cover the disorder mid-stream must start recovering them.
func TestSetKPropagates(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.Feed(2, 1500, 6, 5, 2000, 100)
	maxD, _ := in.MaxDelay()
	run := func(k0, k1 stream.Time) (results int64) {
		tree := NewPlanTree(join.EquiChain(2, 0), []stream.Time{stream.Second, stream.Second}, Spine(2), func(Partial) { results++ })
		ks := buffered(tree, k0)
		for i, e := range in.Clone() {
			if i == len(in)/4 {
				for _, b := range ks {
					b.SetK(k1)
				}
			}
			ks[e.Src].Push(e)
		}
		finish(tree, ks)
		return results
	}
	full, none, raised := run(maxD, maxD), run(0, 0), run(0, maxD)
	if none >= full {
		t.Fatalf("K=0 should lose results: %d vs %d", none, full)
	}
	if raised <= none {
		t.Fatalf("raising K should recover results: %d vs %d", raised, none)
	}
}
