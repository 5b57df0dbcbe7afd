package join

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

func tup(src int, ts stream.Time, seq uint64, attrs ...float64) *stream.Tuple {
	return &stream.Tuple{TS: ts, Seq: seq, Src: src, Attrs: attrs}
}

// letter join: S1 and S2 tuples match when attribute 0 is equal (the Fig. 1
// letter pairing).
func letterCond() *Condition { return Cross(2).Equi(0, 0, 1, 0) }

func collectOp(cond *Condition, sizes []stream.Time) (*Operator, *[]stream.Result) {
	var out []stream.Result
	op := New(cond, sizes, WithEmit(func(r stream.Result) { out = append(out, r.Clone()) }))
	return op, &out
}

// TestFig1MissedResult reproduces the C4 phenomenon of Fig. 1: without
// disorder handling, the out-of-order tuple C4 arrives after B6 has already
// advanced the watermark, so the matching result (C4, c3) is missed, while
// the sorted input produces it.
func TestFig1MissedResult(t *testing.T) {
	const cVal, bVal = 3.0, 2.0
	w := []stream.Time{2, 2}

	run := func(in []*stream.Tuple) int {
		op, out := collectOp(letterCond(), w)
		for _, e := range in {
			op.Process(e)
		}
		return len(*out)
	}

	disordered := []*stream.Tuple{
		tup(1, 3, 0, cVal), // c3
		tup(0, 6, 1, bVal), // B6 advances onT to 6
		tup(0, 4, 2, cVal), // C4 arrives late → no probe
	}
	if got := run(disordered); got != 0 {
		t.Fatalf("disordered run produced %d results, want 0 (missed)", got)
	}
	sorted := []*stream.Tuple{
		tup(1, 3, 0, cVal),
		tup(0, 4, 2, cVal), // C4 in order → joins c3 (3 ≥ 4−2)
		tup(0, 6, 1, bVal),
	}
	if got := run(sorted); got != 1 {
		t.Fatalf("sorted run produced %d results, want 1", got)
	}
}

// TestFig1LostInsteadOfOutOfOrder checks that Alg. 2 turns the would-be
// out-of-order result (E5, e7) of Fig. 1 into a loss: e7 arrives after D8,
// is detected via onT and skipped, keeping the output stream in order.
func TestFig1LostInsteadOfOutOfOrder(t *testing.T) {
	const eVal, dVal = 5.0, 4.0
	op, out := collectOp(letterCond(), []stream.Time{2, 2})
	op.Process(tup(0, 5, 0, eVal)) // E5
	op.Process(tup(0, 8, 1, dVal)) // D8
	op.Process(tup(1, 7, 2, eVal)) // e7 — out of order w.r.t. onT=8
	if len(*out) != 0 {
		t.Fatalf("produced %d results, want 0 (out-of-order result suppressed)", len(*out))
	}
	if op.OutOfOrder() != 1 {
		t.Fatalf("OutOfOrder = %d, want 1", op.OutOfOrder())
	}
}

// TestOutOfOrderTupleStillContributes checks lines 9–10 of Alg. 2: a late
// tuple within its window scope is inserted and derives future results.
func TestOutOfOrderTupleStillContributes(t *testing.T) {
	const cVal = 3.0
	op, out := collectOp(letterCond(), []stream.Time{4, 4})
	op.Process(tup(0, 6, 0, 9))    // B6 (no match), onT=6
	op.Process(tup(0, 4, 1, cVal)) // C4 late, but 4 > 6−4 → inserted
	op.Process(tup(1, 6, 2, cVal)) // c6 in order → probes S1 window, finds C4
	if len(*out) != 1 {
		t.Fatalf("produced %d results, want 1", len(*out))
	}
	if (*out)[0].TS != 6 {
		t.Fatalf("result ts = %d, want 6", (*out)[0].TS)
	}
}

// TestOutOfOrderBeyondWindowDropped: a late tuple strictly outside its own
// window scope is not inserted.
func TestOutOfOrderBeyondWindowDropped(t *testing.T) {
	op, _ := collectOp(letterCond(), []stream.Time{2, 2})
	op.Process(tup(0, 10, 0, 1))
	op.Process(tup(0, 7, 1, 1)) // 7 < 10−2 → dropped entirely
	if op.WindowLen(0) != 1 {
		t.Fatalf("window holds %d tuples, want 1", op.WindowLen(0))
	}
}

// TestOutOfOrderAtScopeBoundaryKept is the regression test for the expiry
// off-by-one: the window scope at watermark onT is the closed interval
// [onT − W, onT] (Expire removes only TS < onT − W), so a late tuple with
// TS exactly onT − W is still in scope, must be inserted, and must derive
// results for later arrivals.
func TestOutOfOrderAtScopeBoundaryKept(t *testing.T) {
	const key = 7.0
	w := []stream.Time{10, 10}
	op, out := collectOp(letterCond(), w)
	op.Process(tup(1, 10, 0, key)) // advances onT to 10
	op.Process(tup(0, 0, 1, key))  // late, TS == onT − W == 0: in scope
	if op.WindowLen(0) != 1 {
		t.Fatalf("boundary tuple dropped: window 0 holds %d tuples, want 1", op.WindowLen(0))
	}
	// An in-order arrival at onT probes window 0: Expire(10−10 = 0) keeps
	// the boundary tuple (expired means strictly older), so it must join.
	op.Process(tup(1, 10, 2, key))
	if len(*out) != 1 {
		t.Fatalf("boundary tuple derived %d results, want 1", len(*out))
	}
	if (*out)[0].TS != 10 {
		t.Fatalf("result ts = %d, want 10", (*out)[0].TS)
	}
}

// TestFig5Selectivity reproduces Fig. 5: W1=W2=3, S1 = A1,B2,C3 and
// S2 = b1,b2,b3. In-order processing yields 3 results out of 9 probed
// combinations (selectivity 1/3); if B2 arrives out of order the results
// derived from it are lost.
func TestFig5Selectivity(t *testing.T) {
	w := []stream.Time{3, 3}
	var cross, on int64
	hook := func(e *stream.Tuple, nCross, nOn int64, inOrder bool) {
		cross += nCross
		on += nOn
	}
	seqIn := []*stream.Tuple{
		tup(0, 1, 0, 1), // A1
		tup(1, 1, 1, 2), // b1
		tup(0, 2, 2, 2), // B2
		tup(1, 2, 3, 2), // b2
		tup(1, 3, 4, 2), // b3
		tup(0, 3, 5, 3), // C3
	}
	op := New(letterCond(), w, WithProcessedHook(hook))
	for _, e := range seqIn {
		op.Process(e)
	}
	// In-order: results are (B2,b1), (b2,B2), (b3,B2) → 3 results.
	if op.Results() != 3 {
		t.Fatalf("in-order results = %d, want 3", op.Results())
	}
	// The probed cross combinations follow Fig. 5a: 0+1+1+2+2+3 = 9, giving
	// the paper's selectivity 3/9 = 1/3.
	if cross != 9 {
		t.Fatalf("cross combinations = %d, want 9", cross)
	}
	if on != 3 {
		t.Fatalf("matched combinations = %d, want 3", on)
	}

	// Now B2 arrives out of order (after b3): its probe never happens and
	// only (C3,…) arrivals could still use it. Results drop.
	ooo := []*stream.Tuple{
		tup(0, 1, 0, 1), // A1
		tup(1, 1, 1, 2), // b1
		tup(1, 2, 3, 2), // b2
		tup(1, 3, 4, 2), // b3
		tup(0, 2, 2, 2), // B2 late
		tup(0, 3, 5, 3), // C3
	}
	op2, out2 := collectOp(letterCond(), w)
	for _, e := range ooo {
		op2.Process(e)
	}
	if len(*out2) >= 3 {
		t.Fatalf("out-of-order B2 should lose results, got %d", len(*out2))
	}
	_ = op2
}

// TestThreeWayEquiJoin checks a 3-way equi chain end to end.
func TestThreeWayEquiJoin(t *testing.T) {
	cond := EquiChain(3, 0)
	op, out := collectOp(cond, []stream.Time{10, 10, 10})
	op.Process(tup(0, 1, 0, 7))
	op.Process(tup(1, 2, 1, 7))
	op.Process(tup(2, 3, 2, 7)) // completes (7,7,7)
	op.Process(tup(2, 4, 3, 8)) // no match
	op.Process(tup(0, 5, 4, 7)) // another S0 seven → matches S1 and S2 sevens
	if len(*out) != 2 {
		t.Fatalf("results = %d, want 2", len(*out))
	}
	for _, r := range *out {
		if len(r.Tuples) != 3 {
			t.Fatal("3-way result must bind 3 tuples")
		}
		if r.Tuples[0].Attr(0) != r.Tuples[1].Attr(0) || r.Tuples[1].Attr(0) != r.Tuples[2].Attr(0) {
			t.Fatal("equi chain violated")
		}
	}
}

// TestStarJoin checks the Q×4-style star condition.
func TestStarJoin(t *testing.T) {
	cond := Star(4, []int{0, 1, 2}, []int{0, 0, 0})
	op, out := collectOp(cond, []stream.Time{10, 10, 10, 10})
	op.Process(tup(1, 1, 0, 5))       // S2 a1=5
	op.Process(tup(2, 2, 1, 6))       // S3 a2=6
	op.Process(tup(3, 3, 2, 7))       // S4 a3=7
	op.Process(tup(0, 4, 3, 5, 6, 7)) // S1 binds all spokes
	op.Process(tup(0, 5, 4, 5, 6, 8)) // a3 mismatch
	op.Process(tup(3, 6, 5, 8))       // S4 a3=8 → matches second S1 tuple
	if len(*out) != 2 {
		t.Fatalf("results = %d, want 2", len(*out))
	}
}

// TestGenericPredicate checks the UDF path (dist()-style condition).
func TestGenericPredicate(t *testing.T) {
	cond := Cross(2).Where([]int{0, 1}, func(a []*stream.Tuple) bool {
		d := a[0].Attr(0) - a[1].Attr(0)
		return d*d < 25
	})
	op, out := collectOp(cond, []stream.Time{10, 10})
	op.Process(tup(0, 1, 0, 10))
	op.Process(tup(1, 2, 1, 12)) // |10−12| < 5 → match
	op.Process(tup(1, 3, 2, 30)) // no match
	if len(*out) != 1 {
		t.Fatalf("results = %d, want 1", len(*out))
	}
}

// TestCountingFastPathMatchesEnumeration: the counting-only probe (no emit)
// must agree with full enumeration on random equi workloads.
func TestCountingFastPathMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []*stream.Tuple {
			var in []*stream.Tuple
			ts := stream.Time(0)
			for i := 0; i < 150; i++ {
				ts += stream.Time(rng.Intn(3))
				in = append(in, tup(rng.Intn(3), ts, uint64(i), float64(rng.Intn(4))))
			}
			return in
		}
		in := mk()
		cond := EquiChain(3, 0)
		counting := New(cond, []stream.Time{20, 20, 20})
		var emitted int64
		enumerating := New(cond, []stream.Time{20, 20, 20},
			WithEmit(func(stream.Result) { emitted++ }))
		for _, e := range in {
			cp := *e
			counting.Process(&cp)
			cp2 := *e
			enumerating.Process(&cp2)
		}
		return counting.Results() == emitted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestAgainstBruteForce compares operator output on in-order input with a
// brute-force evaluation of the window semantics of Sec. II-A.
func TestAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := []stream.Time{5, 5}
		cond := letterCond()
		var in []*stream.Tuple
		ts := stream.Time(0)
		for i := 0; i < 120; i++ {
			ts += stream.Time(rng.Intn(3))
			in = append(in, tup(rng.Intn(2), ts, uint64(i), float64(rng.Intn(3))))
		}
		op, out := collectOp(cond, w)
		for _, e := range in {
			op.Process(e)
		}
		// Brute force: every pair (a from S0, b from S1) joins iff
		// a.ts−W1 ≤ b.ts ≤ a.ts+W0 and the condition passes.
		var want int
		for _, a := range in {
			if a.Src != 0 {
				continue
			}
			for _, b := range in {
				if b.Src != 1 || a.Attr(0) != b.Attr(0) {
					continue
				}
				if b.TS >= a.TS-w[1] && b.TS <= a.TS+w[0] {
					want++
				}
			}
		}
		return len(*out) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestProcessedHookCounts(t *testing.T) {
	var inOrderN, oooN int
	hook := func(e *stream.Tuple, nCross, nOn int64, inOrder bool) {
		if inOrder {
			inOrderN++
		} else {
			oooN++
		}
	}
	op := New(letterCond(), []stream.Time{5, 5}, WithProcessedHook(hook))
	op.Process(tup(0, 10, 0, 1))
	op.Process(tup(1, 3, 1, 1)) // late
	op.Process(tup(1, 11, 2, 1))
	if inOrderN != 2 || oooN != 1 {
		t.Fatalf("hook counts = %d/%d, want 2/1", inOrderN, oooN)
	}
	if op.Processed() != 3 {
		t.Fatalf("Processed = %d", op.Processed())
	}
}

func TestHighWatermark(t *testing.T) {
	op, _ := collectOp(letterCond(), []stream.Time{5, 5})
	op.Process(tup(0, 42, 0, 1))
	op.Process(tup(1, 17, 1, 1))
	if op.HighWatermark() != 42 {
		t.Fatalf("onT = %d, want 42", op.HighWatermark())
	}
}
