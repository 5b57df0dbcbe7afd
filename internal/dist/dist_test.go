package dist

import (
	"math"
	"math/rand"
	"repro/internal/leakcheck"
	"slices"
	"testing"

	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/stream"
)

// workload builds an m-stream equi feed with bounded disorder.
func workload(m, rounds int, seed int64, domain int) stream.Batch {
	rng := rand.New(rand.NewSource(seed))
	var out stream.Batch
	var seq uint64
	ts := stream.Time(3000)
	for i := 0; i < rounds; i++ {
		ts += 10
		for src := 0; src < m; src++ {
			t := ts
			if rng.Intn(4) == 0 {
				t -= stream.Time(rng.Intn(2000))
			}
			out = append(out, &stream.Tuple{TS: t, Seq: seq, Src: src,
				Attrs: []float64{float64(rng.Intn(domain)), float64(rng.Intn(100))}})
			seq++
		}
	}
	return out
}

// kTree fronts a plan tree with one K-slack buffer per raw stream at a
// common K, as core.Pipeline does without the feedback loop, and counts the
// results.
type kTree struct {
	*PlanTree
	ks      []*kslack.Buffer
	results int64
}

func newKTree(cond *join.Condition, windows []stream.Time, shape *Shape, k stream.Time, sink func(Partial)) *kTree {
	kt := &kTree{}
	kt.PlanTree = NewPlanTree(cond, windows, shape, func(p Partial) {
		kt.results++
		if sink != nil {
			sink(p)
		}
	})
	for i := range windows {
		kt.ks = append(kt.ks, kslack.New(k, kt.Input(i)))
	}
	return kt
}

func (kt *kTree) Push(e *stream.Tuple) { kt.ks[e.Src].Push(e) }

// setK resizes every buffer; a smaller K releases what it makes eligible.
func (kt *kTree) setK(k stream.Time) {
	for _, b := range kt.ks {
		b.SetK(k)
	}
}

func (kt *kTree) Finish() {
	for _, b := range kt.ks {
		b.Flush()
	}
	kt.PlanTree.Finish()
}

func (kt *kTree) Results() int64 { return kt.results }

// spineAgreesWithMJoin checks that, with buffers covering the feed's
// disorder, the spine produces exactly the single operator's result
// multiset.
func spineAgreesWithMJoin(t *testing.T, mk func() *join.Condition, windows []stream.Time, in stream.Batch) {
	t.Helper()
	maxD, _ := in.MaxDelay()
	difftest.Compare(t, "spine", difftest.Flat(mk(), windows, maxD, in.Clone()),
		shaped(mk(), windows, Spine(len(windows)), maxD, in.Clone()))
}

func TestTreeAgreesWithMJoin2Way(t *testing.T) {
	leakcheck.Check(t)
	spineAgreesWithMJoin(t, func() *join.Condition { return join.EquiChain(2, 0) },
		[]stream.Time{stream.Second, stream.Second}, workload(2, 2000, 1, 10))
}

func TestTreeAgreesWithMJoin3Way(t *testing.T) {
	leakcheck.Check(t)
	w := []stream.Time{2 * stream.Second, 2 * stream.Second, 2 * stream.Second}
	spineAgreesWithMJoin(t, func() *join.Condition { return join.EquiChain(3, 0) }, w, workload(3, 1200, 2, 200))
	if n := NewPlanTree(join.EquiChain(3, 0), w, Spine(3), nil).Operators(); n != 2 {
		t.Fatalf("Operators = %d, want 2", n)
	}
}

// Unequal window extents exercise the per-constituent deadline: a partial
// must expire when its EARLIEST constituent leaves its own (possibly small)
// window, not when the partial's max timestamp does.
func TestTreeAgreesWithMJoinUnequalWindows(t *testing.T) {
	leakcheck.Check(t)
	spineAgreesWithMJoin(t, func() *join.Condition { return join.EquiChain(3, 0) },
		[]stream.Time{500, 2 * stream.Second, stream.Second}, workload(3, 1000, 3, 50))
}

// Band predicates are evaluated as residual filters at the stage where
// they become fully bound; the tree must agree with the central operator's
// range-index execution result for result.
func TestTreeBandPredicate(t *testing.T) {
	leakcheck.Check(t)
	// Band on attr 1 (values 0..99, eps 7) plus an equi on attr 0 so both
	// the indexed and the residual stage paths run.
	spineAgreesWithMJoin(t, func() *join.Condition {
		return join.Cross(2).Equi(0, 0, 1, 0).Band(0, 1, 1, 1, 7)
	}, []stream.Time{stream.Second, stream.Second}, workload(2, 1500, 9, 40))
}

// TestTreePureBandPredicate runs a band-only condition through the sorted
// range index of the stage windows.
func TestTreePureBandPredicate(t *testing.T) {
	leakcheck.Check(t)
	spineAgreesWithMJoin(t, func() *join.Condition { return join.Cross(2).Band(0, 1, 1, 1, 12) },
		[]stream.Time{500, 500}, workload(2, 900, 10, 5))
}

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

// TestTreeBandChain3Way drives band-only stages whose *left* inputs are
// partial results, exercising the sorted range index on both stage sides
// (insert, expire, probe).
func TestTreeBandChain3Way(t *testing.T) {
	leakcheck.Check(t)
	spineAgreesWithMJoin(t, func() *join.Condition {
		return join.Cross(3).Band(0, 1, 1, 1, 9).Band(1, 1, 2, 1, 9)
	}, []stream.Time{400, 400, 400}, workload(3, 700, 21, 5))
}

// A generic (non-equi) predicate forces the cross-join scan path of the
// stage windows.
func TestTreeGenericPredicate(t *testing.T) {
	leakcheck.Check(t)
	spineAgreesWithMJoin(t, func() *join.Condition {
		return join.Cross(2).Where([]int{0, 1}, func(a []*stream.Tuple) bool {
			return math.Abs(a[0].Attr(1)-a[1].Attr(1)) < 10
		})
	}, []stream.Time{300, 300}, workload(2, 800, 4, 5))
}

func TestSinkReceivesCompleteResults(t *testing.T) {
	leakcheck.Check(t)
	var got []Partial
	tree := newKTree(join.EquiChain(2, 0), []stream.Time{stream.Second, stream.Second}, Spine(2), 2*stream.Second,
		func(p Partial) { got = append(got, Partial{p.TS, p.Delay, slices.Clone(p.Parts)}) })
	tree.Push(&stream.Tuple{TS: 1000, Seq: 0, Src: 0, Attrs: []float64{7}})
	tree.Push(&stream.Tuple{TS: 1100, Seq: 1, Src: 1, Attrs: []float64{7}})
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
	got := shaped(join.EquiChain(2, 0), []stream.Time{100, 100}, Spine(2), 0, stream.Batch{
		{TS: 10, Seq: 0, Src: 0, Attrs: []float64{math.NaN()}},
		{TS: 20, Seq: 1, Src: 1, Attrs: []float64{math.NaN()}},
		{TS: 500, Seq: 2, Src: 0, Attrs: []float64{1}},
		{TS: 510, Seq: 3, Src: 1, Attrs: []float64{1}},
	})
	if got.Count != 1 {
		t.Fatalf("results = %d, want 1 (NaN pair must not match)", got.Count)
	}
}

func TestSetKPropagates(t *testing.T) {
	leakcheck.Check(t)
	// With K = 0 the disordered feed loses results; raising K to cover the
	// disorder mid-stream must start recovering them.
	in := workload(2, 1500, 6, 5)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{stream.Second, stream.Second}

	full := shaped(join.EquiChain(2, 0), w, Spine(2), maxD, in.Clone())
	none := shaped(join.EquiChain(2, 0), w, Spine(2), 0, in.Clone())
	if none.Count >= full.Count {
		t.Fatalf("K=0 should lose results: %d vs %d", none.Count, full.Count)
	}

	adaptive := newKTree(join.EquiChain(2, 0), w, Spine(2), 0, nil)
	half := in.Clone()
	for i, e := range half {
		if i == len(half)/4 {
			adaptive.setK(maxD)
		}
		adaptive.Push(e)
	}
	adaptive.Finish()
	if adaptive.Results() <= none.Count {
		t.Fatalf("raising K should recover results: %d vs %d", adaptive.Results(), none.Count)
	}
}
