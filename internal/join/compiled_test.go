package join

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/stream"
	"repro/internal/window"
)

// randCond builds a random connected m-way condition: each stream i > 0 is
// linked to an earlier stream by an equi or band predicate, then extra
// edges, a generic WhereExpr and a closure-only Where are sprinkled on top.
func randCond(rng *rand.Rand, m int) *Condition {
	c := Cross(m)
	for i := 1; i < m; i++ {
		j := rng.Intn(i)
		if rng.Intn(2) == 0 {
			c.Equi(j, rng.Intn(2), i, rng.Intn(2))
		} else {
			c.Band(j, rng.Intn(2), i, rng.Intn(2), float64(rng.Intn(3)))
		}
	}
	if rng.Intn(2) == 0 { // extra redundant edge
		a, b := rng.Intn(m), rng.Intn(m)
		if a != b {
			c.Equi(a, 0, b, 0)
		}
	}
	if rng.Intn(2) == 0 { // compilable generic
		c.WhereExpr(Le(Abs(Sub(Attr(0, 1), Attr(m-1, 1))), ConstOf(float64(rng.Intn(4)))))
	}
	if rng.Intn(3) == 0 { // closure-only generic: forces the Eval escape hatch
		c.Where([]int{0, m - 1}, func(a []*stream.Tuple) bool {
			return a[0].Attrs[0] <= a[m-1].Attrs[0]+2
		})
	}
	return c
}

func randTuples(rng *rand.Rand, m, n int) []*stream.Tuple {
	es := make([]*stream.Tuple, n)
	for i := range es {
		ts := stream.Time(i)
		if rng.Intn(4) == 0 && i > 3 { // out-of-order arrival
			ts = stream.Time(i - 1 - rng.Intn(3))
		}
		es[i] = tup(rng.Intn(m), ts, uint64(i),
			float64(rng.Intn(5)), float64(rng.Intn(5)))
	}
	return es
}

func resultSig(r stream.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "@%d:", r.TS)
	for _, t := range r.Tuples {
		fmt.Fprintf(&b, "(%d,%d)", t.Src, t.Seq)
	}
	return b.String()
}

// TestCompiledCountableTail4Way pins the compiled countableTail/tailFused
// flags on a 4-way mixed plan — equi chain ends, a band link in the middle,
// and a generic predicate over streams {0,1}:
//
//	S0.a0 = S1.a0,  |S1.a1 − S2.a1| ≤ 1.5,  S2.a0 = S3.a0,  S0.a1 < S1.a1
//
// The check anchors on the step binding the later of {0,1}, killing every
// tail that contains it; the band step cannot count its tail because the
// final equi probe reads the band candidate itself — but exactly that shape
// fuses (tailFused with one per-candidate probe); and the pure single-equi
// last step of the arrival-0/1 plans is tail-countable.
func TestCompiledCountableTail4Way(t *testing.T) {
	cond := Cross(4).
		Equi(0, 0, 1, 0).
		Band(1, 1, 2, 1, 1.5).
		Equi(2, 0, 3, 0).
		WhereExpr(Lt(Attr(0, 1), Attr(1, 1)))
	op := New(cond, []stream.Time{10, 10, 10, 10})

	type pin struct {
		order     []int
		countable []bool
		fused     []bool
	}
	want := []pin{
		// Arrival 0: [1 2 3]; the generic lands on the step binding 1, the
		// band step's tail hangs on its own candidate (fused), the final
		// equi is countable.
		0: {[]int{1, 2, 3}, []bool{false, false, true}, []bool{false, true, false}},
		// Arrival 1: equi preferred over band → [0 2 3]; same tail shape.
		1: {[]int{0, 2, 3}, []bool{false, false, true}, []bool{false, true, false}},
		// Arrivals 2/3: the check binds last (stream 0 joins at the end), so
		// no tail is countable and nothing fuses behind a check.
		2: {[]int{3, 1, 0}, []bool{false, false, false}, []bool{false, false, false}},
		3: {[]int{2, 1, 0}, []bool{false, false, false}, []bool{false, false, false}},
	}
	for src, w := range want {
		steps := op.class.cplans[src].steps
		for i := range steps {
			if steps[i].stream != w.order[i] {
				t.Errorf("arrival %d step %d: binds stream %d, want %d", src, i, steps[i].stream, w.order[i])
			}
			if steps[i].countableTail != w.countable[i] {
				t.Errorf("arrival %d step %d (stream %d): countableTail %v, want %v",
					src, i, steps[i].stream, steps[i].countableTail, w.countable[i])
			}
			if steps[i].tailFused != w.fused[i] {
				t.Errorf("arrival %d step %d (stream %d): tailFused %v, want %v",
					src, i, steps[i].stream, steps[i].tailFused, w.fused[i])
			}
		}
	}
}

// TestCompiledMatchesInterpreted drives random workloads through the
// compiled probe kernel and the interpreted reference, asserting the exact
// emitted result sequence (order included) and, with emit disabled (which
// re-enables the countable fast paths), the exact per-tuple counts.
func TestCompiledMatchesInterpreted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		cond := randCond(rng, m)
		sizes := make([]stream.Time, m)
		for i := range sizes {
			sizes[i] = stream.Time(3 + rng.Intn(5))
		}
		es := randTuples(rng, m, 300)

		var a, b []string
		opC := New(cond, sizes, WithEmit(func(r stream.Result) { a = append(a, resultSig(r)) }))
		opI := New(cond, sizes, WithEmit(func(r stream.Result) { b = append(b, resultSig(r)) }))
		for _, e := range es {
			opC.Process(e)
			processInterp(opI, e, max(opI.HighWatermark(), e.TS))
		}
		if len(a) != len(b) {
			t.Logf("seed %d: %d results compiled, %d interpreted", seed, len(a), len(b))
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				t.Logf("seed %d: result %d: compiled %s, interpreted %s", seed, i, a[i], b[i])
				return false
			}
		}

		// Counting-only mode: the countable/fused fast paths come alive.
		cntC := New(cond, sizes)
		cntI := New(cond, sizes)
		for i, e := range es {
			wm := cntC.HighWatermark()
			if e.TS > wm {
				wm = e.TS
			}
			nc := cntC.ProcessAt(e, wm)
			ni := processInterp(cntI, e, wm)
			if nc != ni {
				t.Logf("seed %d tuple %d: compiled count %d, interpreted %d", seed, i, nc, ni)
				return false
			}
		}
		if cntC.Results() != int64(len(a)) {
			t.Logf("seed %d: counted %d, emitted %d", seed, cntC.Results(), len(a))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// memberSpec is one query of a Multi under test.
type memberSpec struct {
	cond *Condition
	sig  string
	sink bool
}

// withResidual returns a fresh condition with c's predicates plus, by
// variant, nothing (0), a compilable WhereExpr (1) or an opaque Where closure
// (2): three residual classes under one skeleton.
func withResidual(c *Condition, variant int) *Condition {
	m := c.M
	out := &Condition{M: m, Equis: slices.Clone(c.Equis), Bands: slices.Clone(c.Bands), Generics: slices.Clone(c.Generics)}
	switch variant {
	case 1:
		out.WhereExpr(Le(Abs(Sub(Attr(0, 0), Attr(m-1, 0))), ConstOf(2)))
	case 2:
		out.Where([]int{0, 1}, func(a []*stream.Tuple) bool { return a[0].Attrs[1]+1 >= a[1].Attrs[1] })
	}
	return out
}

// multiShapes lists the Multi memberships the walker is held to the
// interpreter on: one member with and without a sink, two members of one
// residual class (one delivering), three members with distinct residuals
// under one skeleton — the first, delivering, carries a predicate the
// others lack, so steps compiled from it alone would starve them — and two
// residual classes that both deliver.
func multiShapes(cond *Condition) map[string][]memberSpec {
	sig := ResidualSig(cond, "c")
	three := make([]memberSpec, 3)
	for i, v := range []int{1, 0, 2} {
		c := withResidual(cond, v)
		three[i] = memberSpec{c, ResidualSig(c, fmt.Sprint("v", v)), i == 0}
	}
	both := []memberSpec{three[0], three[2]}
	both[1].sink = true
	return map[string][]memberSpec{
		"one/sink":         {{cond, sig, true}},
		"one/count":        {{cond, sig, false}},
		"two-one-class":    {{cond, sig, true}, {cond, sig, false}},
		"three-classes":    three,
		"two-classes/sink": both,
	}
}

// checkMultiMatchesInterpreted runs es through a Multi holding specs and,
// per member, through the interpreted kernel of interp_test.go on windows of
// its own, and compares each member's delivered results (order included),
// its count-sink calls and its per-arrival (n×, n^on, in-order) hook calls.
func checkMultiMatchesInterpreted(t *testing.T, label string, sizes []stream.Time, es []*stream.Tuple, specs []memberSpec) {
	t.Helper()
	type trace struct{ results, counts []string }
	tap := func(tr *trace, sink bool) (EmitFunc, CountEmitFunc, ProcessedFunc) {
		var emit EmitFunc
		if sink {
			emit = func(r stream.Result) { tr.results = append(tr.results, resultSig(r)) }
		}
		return emit,
			func(ts stream.Time, n int64) { tr.counts = append(tr.counts, fmt.Sprint("sink@", ts, ":", n)) },
			func(e *stream.Tuple, nCross, nOn int64, inOrder bool) {
				tr.counts = append(tr.counts, fmt.Sprint(e.Seq, ":", nCross, ",", nOn, ",", inOrder))
			}
	}
	got, want := make([]trace, len(specs)), make([]trace, len(specs))
	mo := NewMulti(sizes)
	members := make([]*MultiMember, len(specs))
	refs := make([]*Operator, len(specs))
	for i, sp := range specs {
		emit, countEmit, hook := tap(&got[i], sp.sink)
		members[i] = mo.Add(sp.cond, sp.sig, emit, countEmit, hook)
		emit, countEmit, hook = tap(&want[i], sp.sink)
		refs[i] = New(sp.cond, sizes, WithEmit(emit), WithCountEmit(countEmit), WithProcessedHook(hook))
	}
	for _, e := range es {
		mo.Process(e)
		for _, ref := range refs {
			processInterp(ref, e, max(ref.HighWatermark(), e.TS))
		}
	}
	for i := range specs {
		if !slices.Equal(got[i].results, want[i].results) {
			t.Fatalf("%s member %d: walker delivered %d results, interpreter %d, or in another order", label, i, len(got[i].results), len(want[i].results))
		}
		if !slices.Equal(got[i].counts, want[i].counts) {
			t.Fatalf("%s member %d: per-arrival counts differ from the interpreter's", label, i)
		}
		if members[i].Results() != refs[i].Results() {
			t.Fatalf("%s member %d: %d results, interpreter %d", label, i, members[i].Results(), refs[i].Results())
		}
	}
}

// TestWalkerMatchesInterpreted is the independent differential for the one
// walker: Operator and Multi share it, so holding a Multi member against a
// standalone Operator (the TestMulti… differentials) compares the walker with
// itself. Here every Multi shape of multiShapes runs TestCompiledMatchesInterpreted's
// generator — equi, band, WhereExpr and opaque Where, late tuples — and two
// fixed conditions, a star (spoke arrivals take the fused tail count) and a
// chain (countable from step 0), against the interpreter, which shares none
// of the lowering, the class compile or the alive-bit bookkeeping.
//
// Mutation checks, each of which fails this test: dropping cs.chkAfter from
// cnt ahead of the fused path in mclass.walk (a class with a pending
// predicate takes the fused count); crediting cnt without clearing it from
// alive (a counted class is enumerated again); compiling a class of several
// residual classes from its first one's full condition (the others inherit
// its sweeps); on the last step, crediting len(cands) to the classes that
// check there as well, dropping them from alive with the classes that only
// count, or reading the hoisted sinks of one class when a second delivers
// or a check is pending.
func TestWalkerMatchesInterpreted(t *testing.T) {
	run := func(label string, cond *Condition, sizes []stream.Time, es []*stream.Tuple) {
		for name, specs := range multiShapes(cond) {
			checkMultiMatchesInterpreted(t, label+"/"+name, sizes, es, specs)
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		cond := randCond(rng, m)
		sizes := make([]stream.Time, m)
		for i := range sizes {
			sizes[i] = stream.Time(3 + rng.Intn(5))
		}
		run(fmt.Sprint("seed ", seed), cond, sizes, randTuples(rng, m, 300))
	}
	rng := rand.New(rand.NewSource(61))
	wide := []stream.Time{24, 28, 20, 26}
	run("star", Star(4, []int{0, 0, 1}, []int{0, 0, 1}), wide, randTuples(rng, 4, 600))
	run("chain", EquiChain(3, 0), wide[:3], randTuples(rng, 3, 600))
}

// randIndexCond is randCond with the shapes that separate "attributes the
// condition names" from "attributes a plan probes" piled on: several equi
// predicates between one pair (only the first is a hash probe, the rest are
// residuals), several bands between one pair (only the first is a range
// probe), and both kinds between one pair (the band is a residual of the
// hash step).
func randIndexCond(rng *rand.Rand, m int) *Condition {
	c := randCond(rng, m)
	for n := rng.Intn(4); n > 0; n-- {
		a := rng.Intn(m - 1)
		b := a + 1 + rng.Intn(m-1-a)
		if rng.Intn(2) == 0 {
			c.Equi(a, rng.Intn(2), b, rng.Intn(2))
		} else {
			c.Band(a, rng.Intn(2), b, rng.Intn(2), float64(rng.Intn(3)))
		}
	}
	return c
}

// assertIndexesProbed checks the "windows index what plans probe" rule on a
// set of compiled plans over shared windows: every step has the handle its
// symbolic step calls for, and every index a window maintains is the base
// probe of at least one step.
func assertIndexesProbed(t *testing.T, windows []*window.Window, symbolic [][]plan, compiled [][]cplan) {
	t.Helper()
	hashes := map[*index.Hash[*stream.Tuple]]bool{}
	ranges := map[*index.Sorted[*stream.Tuple]]bool{}
	for k, plans := range compiled {
		for src := range plans {
			for i := range plans[src].steps {
				cs, st := &plans[src].steps[i], &symbolic[k][src][i]
				if (cs.hash != nil) != (len(st.lookups) > 0) {
					t.Fatalf("arrival %d step %d: hash handle %v for %d equi lookups", src, i, cs.hash != nil, len(st.lookups))
				}
				if (cs.rng != nil) != (len(st.lookups) == 0 && len(st.bands) > 0) {
					t.Fatalf("arrival %d step %d: range handle %v for %d lookups, %d bands", src, i, cs.rng != nil, len(st.lookups), len(st.bands))
				}
				if cs.hash != nil {
					hashes[cs.hash] = true
				}
				if cs.rng != nil {
					ranges[cs.rng] = true
				}
				for _, tp := range append(cs.tailCand, cs.tailFixed...) {
					if tp.hash == nil {
						t.Fatalf("arrival %d step %d has a fused tail probe without a handle", src, i)
					}
					hashes[tp.hash] = true
				}
			}
		}
	}
	for s, w := range windows {
		for a := 0; a < 3; a++ {
			if h := w.HashIndex(a); h != nil && !hashes[h] {
				t.Fatalf("window %d keeps a hash index on attribute %d that no step probes", s, a)
			}
			if r := w.RangeIndex(a); r != nil && !ranges[r] {
				t.Fatalf("window %d keeps a range index on attribute %d that no step probes", s, a)
			}
		}
	}
}

// TestWindowsIndexWhatPlansProbe: on 200 random conditions the operator's
// windows carry exactly the indexes its compiled steps probe, and the
// compiled kernel still emits the interpreted reference walker's exact
// sequence (the walker looks each index up by attribute at probe time, so it
// panics on the nil handle of any index the derivation dropped but a plan
// needs). Every third
// condition also joins a shared Multi, whose union must obey the same rule.
func TestWindowsIndexWhatPlansProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for n := 0; n < 200; n++ {
		m := 2 + rng.Intn(3)
		cond := randIndexCond(rng, m)
		sizes := make([]stream.Time, m)
		for i := range sizes {
			sizes[i] = stream.Time(3 + rng.Intn(5))
		}
		var a, b []string
		opC := New(cond, sizes, WithEmit(func(r stream.Result) { a = append(a, resultSig(r)) }))
		opI := New(cond, sizes, WithEmit(func(r stream.Result) { b = append(b, resultSig(r)) }))
		assertIndexesProbed(t, opC.windows, [][]plan{buildPlans(cond)}, [][]cplan{opC.class.cplans})
		for _, e := range randTuples(rng, m, 200) {
			opC.Process(e)
			processInterp(opI, e, max(opI.HighWatermark(), e.TS))
		}
		if !slices.Equal(a, b) {
			t.Fatalf("condition %d: compiled kernel emitted %d results, reference walker %d, or in another order", n, len(a), len(b))
		}
		if n%3 == 0 {
			mo := NewMulti(sizes)
			for i, c := range []*Condition{cond, randIndexCond(rng, m), randIndexCond(rng, m)} {
				mo.Add(c, ResidualSig(c, fmt.Sprint(n, i)), nil, nil, nil)
			}
			var symbolic [][]plan
			var compiled [][]cplan
			for _, c := range mo.classes {
				symbolic, compiled = append(symbolic, c.plans), append(compiled, c.cplans)
			}
			assertIndexesProbed(t, mo.windows, symbolic, compiled)
		}
	}
}
