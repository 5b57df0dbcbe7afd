package join

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/stream"
)

// TestBandPredicateBasic: a 1-D band join matches exactly the neighbors
// within ±eps, inclusive at both edges.
func TestBandPredicateBasic(t *testing.T) {
	cond := Cross(2).Band(0, 0, 1, 0, 2)
	op, out := collectOp(cond, []stream.Time{10, 10})
	op.Process(tup(1, 1, 0, 5))   // in band of 4 (|5−4| ≤ 2)
	op.Process(tup(1, 2, 1, 6))   // at the closed edge (|6−4| = 2)
	op.Process(tup(1, 3, 2, 6.5)) // outside (2.5 > 2)
	op.Process(tup(0, 4, 3, 4))   // probes S1: matches 5 and 6
	if len(*out) != 2 {
		t.Fatalf("results = %d, want 2 (closed band edges)", len(*out))
	}
}

// TestBandNaNNeverMatches: NaN attribute values satisfy no band, on either
// side of the probe.
func TestBandNaNNeverMatches(t *testing.T) {
	cond := Cross(2).Band(0, 0, 1, 0, 100)
	op, out := collectOp(cond, []stream.Time{10, 10})
	op.Process(tup(1, 1, 0, math.NaN())) // stored NaN
	op.Process(tup(0, 2, 1, 0))          // probe: must not match NaN
	op.Process(tup(1, 3, 2, math.NaN())) // NaN probe against stored 0
	if len(*out) != 0 {
		t.Fatalf("results = %d, want 0 (NaN never band-matches)", len(*out))
	}
	if cond.Matches([]*stream.Tuple{tup(0, 2, 1, 0), tup(1, 1, 0, math.NaN())}) {
		t.Fatal("Matches must agree that NaN fails the band")
	}
}

// TestBandRoundingAgreesWithMatches is the regression test for the
// band-edge rounding divergence: with eps = 0.3, stored 0.4 and probe 0.1,
// fl(0.4 − 0.1) = 0.30000000000000004 > 0.3 so Condition.Matches rejects —
// but the naive probe bounds fl(0.1 + 0.3) = 0.4 would include the tuple.
// Planned execution must side with Matches (the probe is a widened
// superset pre-filter; the exact difference form decides).
func TestBandRoundingAgreesWithMatches(t *testing.T) {
	cond := Cross(2).Band(0, 0, 1, 0, 0.3)
	if cond.Matches([]*stream.Tuple{tup(0, 2, 1, 0.1), tup(1, 1, 0, 0.4)}) {
		t.Fatal("precondition: Matches must reject fl(0.4−0.1) > 0.3")
	}
	op, out := collectOp(cond, []stream.Time{10, 10})
	counting := New(cond, []stream.Time{10, 10})
	for _, e := range []*stream.Tuple{tup(1, 1, 0, 0.4), tup(0, 2, 1, 0.1)} {
		cp, cp2 := *e, *e
		op.Process(&cp)
		counting.Process(&cp2)
	}
	if len(*out) != 0 {
		t.Fatalf("enumerating path produced %d results, want 0 (Matches rejects)", len(*out))
	}
	if counting.Results() != 0 {
		t.Fatalf("counting path produced %d results, want 0", counting.Results())
	}
	// The mirror case one ulp inside the band must still match.
	d := math.Nextafter(0.3, 0) // largest float < 0.3
	op2, out2 := collectOp(cond, []stream.Time{10, 10})
	op2.Process(tup(1, 1, 0, 0.1+d))
	op2.Process(tup(0, 2, 1, 0.1))
	if len(*out2) != 1 {
		t.Fatalf("in-band value produced %d results, want 1", len(*out2))
	}
}

// TestBandInfinityNeverMatches: ±Inf attributes can never satisfy a finite
// band — on either side of the probe — matching the Matches semantics
// (Inf − Inf = NaN, Inf − finite = ±Inf).
func TestBandInfinityNeverMatches(t *testing.T) {
	cond := Cross(2).Band(0, 0, 1, 0, 1)
	op, out := collectOp(cond, []stream.Time{10, 10})
	op.Process(tup(1, 1, 0, math.Inf(1)))  // stored +Inf
	op.Process(tup(0, 2, 1, math.Inf(1)))  // +Inf probe against stored +Inf
	op.Process(tup(0, 3, 2, 5))            // finite probe against stored +Inf
	op.Process(tup(1, 4, 3, math.Inf(-1))) // −Inf probe against stored finite
	if len(*out) != 0 {
		t.Fatalf("results = %d, want 0 (Inf never band-matches)", len(*out))
	}
}

// refMSWJ is a reference MSWJ evaluator: plain slices, full cross
// enumeration, Condition.Matches as the oracle semantics, and the
// documented boundary convention (scope [onT − W, onT], expired strictly
// older). The planned operator must agree with it result for result.
type refMSWJ struct {
	cond    *Condition
	windows []stream.Time
	live    [][]*stream.Tuple
	onT     stream.Time
}

func newRefMSWJ(cond *Condition, windows []stream.Time) *refMSWJ {
	return &refMSWJ{cond: cond, windows: windows, live: make([][]*stream.Tuple, cond.M)}
}

func (r *refMSWJ) process(e *stream.Tuple) int64 {
	if e.TS < r.onT {
		// Out of order: no probe; keep only while inside the own scope.
		if e.TS >= r.onT-r.windows[e.Src] {
			r.live[e.Src] = append(r.live[e.Src], e)
		}
		return 0
	}
	r.onT = e.TS
	for s := range r.live {
		if s == e.Src {
			continue
		}
		bound := e.TS - r.windows[s]
		kept := r.live[s][:0]
		for _, tu := range r.live[s] {
			if tu.TS >= bound {
				kept = append(kept, tu)
			}
		}
		r.live[s] = kept
	}
	assign := make([]*stream.Tuple, r.cond.M)
	assign[e.Src] = e
	n := r.enumerate(assign, 0)
	r.live[e.Src] = append(r.live[e.Src], e)
	return n
}

func (r *refMSWJ) enumerate(assign []*stream.Tuple, s int) int64 {
	if s == r.cond.M {
		if r.cond.Matches(assign) {
			return 1
		}
		return 0
	}
	if assign[s] != nil {
		return r.enumerate(assign, s+1)
	}
	var n int64
	for _, tu := range r.live[s] {
		assign[s] = tu
		n += r.enumerate(assign, s+1)
	}
	assign[s] = nil
	return n
}

// randBandWorkload builds a disordered batch mixing arbitrary continuous
// attribute values (not exactly representable — exercising the widened
// range probe + exact residual filter at band edges) with a coarse
// half-step grid (forcing frequent exact edge ties), occasional NaN
// attributes, and duplicate timestamps pinned to window edges.
func randBandWorkload(rng *rand.Rand, m, n int) []*stream.Tuple {
	var in []*stream.Tuple
	ts := stream.Time(0)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // duplicate timestamp
		case 1:
			ts += 1
		default:
			ts += stream.Time(rng.Intn(4))
		}
		t := ts
		if rng.Intn(6) == 0 && ts > 8 {
			t = ts - stream.Time(rng.Intn(10)) // out-of-order residue
		}
		val := func() float64 {
			if rng.Intn(2) == 0 {
				return float64(rng.Intn(24)) / 2 // exact half-step grid
			}
			return rng.Float64() * 12 // arbitrary continuous value
		}
		attrs := []float64{val(), val(), float64(rng.Intn(3))}
		if rng.Intn(25) == 0 {
			attrs[rng.Intn(2)] = math.NaN()
		}
		in = append(in, tup(rng.Intn(m), t, uint64(i), attrs...))
	}
	return in
}

// randBandCond draws a random conjunctive mix of band, equi and generic
// predicates over m streams (always at least one band).
func randBandCond(rng *rand.Rand, m int) *Condition {
	c := Cross(m)
	eps := float64(rng.Intn(5)) / 2
	c.Band(0, 0, 1, 0, eps)
	if rng.Intn(2) == 0 {
		c.Band(0, 1, 1, 1, eps+0.5) // second band on another attribute
	}
	if m > 2 && rng.Intn(2) == 0 {
		c.Band(1, 0, 2, 0, eps+1)
	}
	if rng.Intn(2) == 0 {
		ls := 0
		rs := rng.Intn(m-1) + 1
		c.Equi(ls, 2, rs, 2)
	}
	if rng.Intn(2) == 0 {
		streams := make([]int, m)
		for i := range streams {
			streams[i] = i
		}
		c.Where(streams, func(assign []*stream.Tuple) bool {
			var sum float64
			for _, tu := range assign {
				sum += tu.Attr(2)
			}
			return sum != 2
		})
	}
	return c
}

// TestBandPlannerDifferential replays random disordered batches through the
// planned operator (both the enumerating and the counting-only probe
// paths) and the reference evaluator on random band + equi + generic
// condition mixes: all three must produce identical result counts.
func TestBandPlannerDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(2)
		cond := randBandCond(rng, m)
		windows := make([]stream.Time, m)
		for i := range windows {
			windows[i] = stream.Time(4 + rng.Intn(8))
		}
		in := randBandWorkload(rng, m, 250)

		ref := newRefMSWJ(cond, windows)
		var want int64
		for _, e := range in {
			want += ref.process(e)
		}

		op, out := collectOp(cond, windows)
		counting := New(cond, windows)
		for _, e := range in {
			cp, cp2 := *e, *e
			op.Process(&cp)
			counting.Process(&cp2)
		}
		if int64(len(*out)) != want {
			t.Logf("seed %d: enumerated %d results, reference %d", seed, len(*out), want)
			return false
		}
		if counting.Results() != want {
			t.Logf("seed %d: counting path %d results, reference %d", seed, counting.Results(), want)
			return false
		}
		for _, r := range *out {
			if !cond.Matches(r.Tuples) {
				t.Logf("seed %d: emitted result violates Matches", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBandCountingFastPathPureBand pins the O(log n) counting path: a pure
// band condition (no generic residual) with no emit sink must agree with
// enumeration.
func TestBandCountingFastPathPureBand(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cond := Cross(2).Band(0, 0, 1, 0, 1.5)
		w := []stream.Time{10, 10}
		in := randBandWorkload(rng, 2, 200)
		counting := New(cond, w)
		var emitted int64
		enumerating := New(cond, w, WithEmit(func(stream.Result) { emitted++ }))
		for _, e := range in {
			cp, cp2 := *e, *e
			counting.Process(&cp)
			enumerating.Process(&cp2)
		}
		return counting.Results() == emitted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBandMixedWithEqui: an equi lookup narrows first, the band filters the
// bucket — the probe order the planner prefers.
func TestBandMixedWithEqui(t *testing.T) {
	cond := Cross(2).Equi(0, 2, 1, 2).Band(0, 0, 1, 0, 1)
	op, out := collectOp(cond, []stream.Time{10, 10})
	op.Process(tup(1, 1, 0, 5, 0, 1))   // key 1, in band of 5
	op.Process(tup(1, 2, 1, 5, 0, 2))   // key 2: equi mismatch
	op.Process(tup(1, 3, 2, 9, 0, 1))   // key 1 but outside band
	op.Process(tup(0, 4, 3, 5.5, 0, 1)) // probes: only the first matches
	if len(*out) != 1 {
		t.Fatalf("results = %d, want 1", len(*out))
	}
}

// TestBandEdgeTrimAgreesWithMatches is the directed test of the grid
// probe's band edges (index.Grid.AppendBand): the cells it visits come from
// widened bounds and the exact difference form then decides, so it is wrong
// exactly where a stored key sits within a few ulps of a band edge or of a
// cell edge. Stored keys are placed −20 … +20 ulps around BOTH exact edges
// (plus ±Inf, ±0, NaN and duplicate keys on either side of each edge) at
// centers from 0 to 10⁹, under a second band (the grid's second dimension)
// and a generic residual, probed from either stream. The emitted sequence
// must equal Condition.Matches applied to the window in the grid's
// documented order — ascending (x, y) cell, (TS, Seq) within a cell — and
// the interpreted reference walker's.
func TestBandEdgeTrimAgreesWithMatches(t *testing.T) {
	ulps := func(x float64, k int) float64 {
		for ; k > 0; k-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		for ; k < 0; k++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	}
	sizes := []stream.Time{1 << 40, 1 << 40}
	for _, eps := range []float64{0, 0.3, 5, 1e-9} {
		cond := Cross(2).
			Band(0, 0, 1, 0, eps).
			Band(0, 1, 1, 1, 1).
			WhereExpr(Lt(Abs(Sub(Attr(0, 2), Attr(1, 2))), ConstOf(1.5)))
		for _, c := range []float64{0, 0.1, 0.3, 1, 5, 1e3 + 0.1, 1e6 + 0.3, 1e9, -1e9 - 0.7, math.Copysign(0, -1)} {
			for probeSrc := 0; probeSrc < 2; probeSrc++ {
				var keys []float64
				for _, edge := range []float64{c - eps, c + eps} {
					for k := -20; k <= 20; k++ {
						keys = append(keys, ulps(edge, k))
					}
					// Duplicates spanning the edge: a run of equal keys just
					// inside it and a run just outside it.
					for _, k := range []int{-1, 0, 1} {
						keys = append(keys, ulps(edge, k), ulps(edge, k))
					}
				}
				keys = append(keys, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), c, c, math.NaN())
				rng := rand.New(rand.NewSource(int64(len(keys))))
				rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

				stored := 1 - probeSrc
				var feed, window []*stream.Tuple
				for i, k := range keys {
					// The second band passes two of three, the generic two of
					// three: survivors of the trim are thinned in its interior.
					e := tup(stored, stream.Time(i+1), uint64(i), k, float64(i%3), float64(i%4%3))
					feed = append(feed, e)
					if k == k { // NaN is never indexed, and would break the sort
						window = append(window, e)
					}
				}
				probe := tup(probeSrc, stream.Time(len(keys)+1), uint64(len(keys)), c, 1, 0)
				feed = append(feed, probe)

				// Cell order; the feed is in (TS, Seq) order already.
				sort.SliceStable(window, func(i, j int) bool {
					x, y := window[i].Attrs, window[j].Attrs
					if cx, cy := index.BandCell(x[0], eps), index.BandCell(y[0], eps); cx != cy {
						return cx < cy
					}
					return index.BandCell(x[1], 1) < index.BandCell(y[1], 1)
				})
				var want []string
				assign := make([]*stream.Tuple, 2)
				assign[probeSrc] = probe
				for _, e := range window {
					assign[stored] = e
					if cond.Matches(assign) {
						want = append(want, resultSig(stream.NewResult([]*stream.Tuple{assign[0], assign[1]})))
					}
				}

				var got, ref []string
				opC := New(cond, sizes, WithEmit(func(r stream.Result) { got = append(got, resultSig(r)) }))
				opI := New(cond, sizes, WithEmit(func(r stream.Result) { ref = append(ref, resultSig(r)) }))
				counting := New(cond, sizes)
				for _, e := range feed {
					opC.Process(e)
					processInterp(opI, e, max(opI.HighWatermark(), e.TS))
					counting.Process(e)
				}
				name := fmt.Sprintf("eps=%v c=%v probe=S%d", eps, c, probeSrc)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: compiled kernel emitted\n%v\nCondition.Matches in key order gives\n%v", name, got, want)
				}
				if !slices.Equal(got, ref) {
					t.Fatalf("%s: compiled kernel emitted\n%v\nreference walker emitted\n%v", name, got, ref)
				}
				if counting.Results() != int64(len(want)) {
					t.Fatalf("%s: counting path %d results, want %d", name, counting.Results(), len(want))
				}
				if len(want) == 0 && eps > 0 {
					t.Fatalf("%s: no key matched — the case does not exercise the band edges", name)
				}
			}
		}
	}
}
