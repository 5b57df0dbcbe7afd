package core

import (
	"fmt"
	"math/rand"
	"repro/internal/leakcheck"
	"testing"

	"repro/internal/adapt"
	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/oracle"
	"repro/internal/stream"
	"repro/internal/syncer"
)

// mkWorkload builds a 2-stream equi-join workload with interleaved arrivals:
// every 5th tuple of each stream is delayed by `delay`.
func mkWorkload(n int, delay stream.Time, seed int64) stream.Batch {
	rng := rand.New(rand.NewSource(seed))
	var out stream.Batch
	var seq uint64
	ts := stream.Time(delay + 100)
	for i := 0; i < n; i++ {
		ts += 10
		for s := 0; s < 2; s++ {
			t := ts
			if i%5 == 4 {
				t = ts - delay
			}
			out = append(out, &stream.Tuple{
				TS: t, Seq: seq, Src: s,
				Attrs: []float64{float64(rng.Intn(4))},
			})
			seq++
		}
	}
	return out
}

func equi2() *join.Condition { return join.Cross(2).Equi(0, 0, 1, 0) }

func baseCfg(policy PolicyFactory) Config {
	return Config{
		Windows: []stream.Time{500, 500},
		Cond:    equi2(),
		Adapt: adapt.Config{
			Gamma: 0.9,
			P:     5 * stream.Second,
			L:     stream.Second,
			B:     10,
			G:     10,
		},
		Policy: policy,
	}
}

func TestPipelinePanicsOnArityMismatch(t *testing.T) {
	leakcheck.Check(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Windows: []stream.Time{10}, Cond: equi2()})
}

// TestMaxKMatchesOracle: with the Max-K-slack policy, disorder handling is
// (nearly) complete, so the produced results match the oracle except for
// tuples whose delay exceeded the maximum observed so far.
func TestMaxKMatchesOracle(t *testing.T) {
	leakcheck.Check(t)
	in := mkWorkload(3000, 200, 1)
	truth := oracle.TrueResults(equi2(), []stream.Time{500, 500}, in)

	p := New(baseCfg(MaxKPolicy()))
	p.Run(in.Clone())
	got := p.Results()
	if float64(got) < 0.97*float64(truth.Total()) {
		t.Fatalf("Max-K produced %d of %d true results", got, truth.Total())
	}
	if got > truth.Total() {
		t.Fatalf("produced %d exceeds true %d — correctness bug", got, truth.Total())
	}
}

// TestNoKLosesResults: without K-slack, the delayed tuples' results are
// mostly lost.
func TestNoKLosesResults(t *testing.T) {
	leakcheck.Check(t)
	in := mkWorkload(3000, 200, 2)
	truth := oracle.TrueResults(equi2(), []stream.Time{500, 500}, in)
	p := New(baseCfg(NoKPolicy()))
	p.Run(in.Clone())
	if p.Results() >= truth.Total() {
		t.Fatalf("No-K produced %d of %d — expected losses", p.Results(), truth.Total())
	}
}

// TestModelPolicyBeatsMaxKOnLatency: the quality-driven policy should apply
// a smaller average K than Max-K-slack while keeping results close to the
// requirement.
func TestModelPolicyBeatsMaxKOnLatency(t *testing.T) {
	leakcheck.Check(t)
	in := mkWorkload(6000, 200, 3)
	truth := oracle.TrueResults(equi2(), []stream.Time{500, 500}, in)

	cfg := baseCfg(ModelPolicy())
	cfg.Adapt.Gamma = 0.8
	p := New(cfg)
	p.Run(in.Clone())

	if p.AvgK() >= 200 {
		t.Fatalf("avg K = %v, should undercut the 200 max delay", p.AvgK())
	}
	got := float64(p.Results()) / float64(truth.Total())
	if got < 0.7 {
		t.Fatalf("overall recall %v too far below requirement 0.8", got)
	}
	if p.Adaptations() == 0 {
		t.Fatal("model policy must adapt")
	}
}

func TestAdaptationCadence(t *testing.T) {
	leakcheck.Check(t)
	in := mkWorkload(3000, 50, 4) // spans ~30 s
	p := New(baseCfg(StaticPolicy(50)))
	var events []AdaptEvent
	p.cfg.OnAdapt = func(ev AdaptEvent) { events = append(events, ev) }
	p.Run(in.Clone())
	// ~30 s of logical time at L = 1 s → ≈29 boundaries.
	if len(events) < 25 || len(events) > 35 {
		t.Fatalf("adaptations = %d, want ≈29", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Now-events[i-1].Now != stream.Second {
			t.Fatalf("interval %d–%d not L", i-1, i)
		}
	}
	if p.CurrentK() != 50 {
		t.Fatalf("static K = %d", p.CurrentK())
	}
}

// TestSparseArrivalSingleAdaptStep is the regression test for the
// adaptation-gap skew: one arrival crossing several interval boundaries
// must trigger ONE adaptation decision (anchored at the last crossed
// boundary), not one per boundary — the repeats would consume an
// already-reset profiler and push zero true-size estimates into the
// monitor ring.
func TestSparseArrivalSingleAdaptStep(t *testing.T) {
	leakcheck.Check(t)
	p := New(baseCfg(StaticPolicy(30))) // L = 1 s
	var events []AdaptEvent
	p.cfg.OnAdapt = func(ev AdaptEvent) { events = append(events, ev) }

	push := func(ts stream.Time, seq uint64) {
		p.Push(&stream.Tuple{TS: ts, Seq: seq, Src: int(seq % 2), Attrs: []float64{1}})
	}
	push(1000, 0) // arms nextAdapt = 2000
	push(1100, 1)
	// The next arrival is 10 intervals later: it crosses the boundaries
	// 2000..11000 in one Push.
	push(11*stream.Second+100, 2)
	if len(events) != 1 {
		t.Fatalf("sparse arrival ran %d adaptation steps, want 1", len(events))
	}
	if events[0].Now != 11*stream.Second {
		t.Fatalf("decision anchored at %v, want the last crossed boundary 11s", events[0].Now)
	}
	// Dense arrivals afterwards resume the normal one-step-per-boundary
	// cadence from the new anchor.
	push(12*stream.Second+100, 3)
	if len(events) != 2 || events[1].Now != 12*stream.Second {
		t.Fatalf("cadence did not resume: %+v", events)
	}
	if p.Adaptations() != 2 {
		t.Fatalf("Adaptations = %d, want 2", p.Adaptations())
	}
}

func TestConservationThroughPipeline(t *testing.T) {
	leakcheck.Check(t)
	in := mkWorkload(2000, 100, 5)
	p := New(baseCfg(StaticPolicy(30)))
	p.Run(in.Clone())
	if p.Operator().Processed() != int64(len(in)) {
		t.Fatalf("operator saw %d of %d tuples", p.Operator().Processed(), len(in))
	}
	if p.Pushed() != int64(len(in)) {
		t.Fatalf("pushed %d of %d", p.Pushed(), len(in))
	}
}

// --- Same-K policy (Theorem 1 / Fig. 4) ----------------------------------

// runPerStreamK wires K-slack components with *individual* buffer sizes in
// front of a Synchronizer and the join operator, bypassing the Same-K
// Buffer-Size Manager, and returns the produced result multiset.
// Only results with timestamps inside [lo, hi] are collected: the theorem
// describes steady-state equivalence, and the first/last moments of a finite
// run (empty buffers, final flush) are excluded.
func runPerStreamK(ks []stream.Time, in stream.Batch, cond *join.Condition, windows []stream.Time, lo, hi stream.Time) *difftest.Run {
	r := difftest.NewRun()
	op := join.New(cond, windows, join.WithEmit(func(res stream.Result) {
		if res.TS >= lo && res.TS <= hi {
			r.Emit(res)
		}
	}))
	sy := syncer.New(len(ks), op.Process)
	buffers := make([]*kslack.Buffer, len(ks))
	for i, k := range ks {
		buffers[i] = kslack.New(k, sy.Push)
	}
	for _, e := range in {
		cp := *e
		buffers[e.Src].Push(&cp)
	}
	for _, b := range buffers {
		b.Flush()
	}
	for i := range ks {
		sy.Close(i)
	}
	return r
}

// TestSameKTheoremSynchronized verifies Theorem 1 for synchronized streams:
// a configuration (k1, k2) is equivalent to (k, k) with
// k = min{iT} − min{iT − ki} = max{ki}.
func TestSameKTheoremSynchronized(t *testing.T) {
	leakcheck.Check(t)
	in := mkWorkload(2500, 150, 7)
	w := []stream.Time{500, 500}
	configs := [][2]stream.Time{{0, 60}, {60, 0}, {30, 90}, {150, 40}}
	for _, c := range configs {
		lo, hi := in[0].TS+1000, in.MaxTS()-1000
		mixed := runPerStreamK([]stream.Time{c[0], c[1]}, in, equi2(), w, lo, hi)
		k := c[0]
		if c[1] > k {
			k = c[1]
		}
		same := runPerStreamK([]stream.Time{k, k}, in, equi2(), w, lo, hi)
		difftest.Compare(t, fmt.Sprintf("config %v against same-K %d", c, k), same, mixed)
	}
}

// TestSameKTheoremSkewedStreams verifies the general form of Theorem 1 with
// a constant time skew: stream 0 leads stream 1 by `skew`, so
// k = min{iT} − min{iT − ki} = max{k1, k0 − skew} when k0−skew ≥ … (see
// Fig. 4 cases 1 and 2).
func TestSameKTheoremSkewedStreams(t *testing.T) {
	leakcheck.Check(t)
	const skew = 50
	rng := rand.New(rand.NewSource(11))
	var in stream.Batch
	var seq uint64
	ts := stream.Time(500)
	for i := 0; i < 2500; i++ {
		ts += 10
		for s := 0; s < 2; s++ {
			t := ts
			if s == 0 {
				t += skew // stream 0 leads
			}
			if i%5 == 4 {
				t -= 120
			}
			in = append(in, &stream.Tuple{TS: t, Seq: seq, Src: s,
				Attrs: []float64{float64(rng.Intn(4))}})
			seq++
		}
	}
	w := []stream.Time{500, 500}
	for _, c := range [][2]stream.Time{{70, 10}, {100, 0}, {0, 80}} {
		k0, k1 := c[0], c[1]
		// k = min{iT} − min{iT−ki}; with iT0 = iT1 + skew:
		// min{iT} = iT1; min{iT−ki} = min(iT1+skew−k0, iT1−k1)
		// → k = max(k0−skew, k1).
		k := k1
		if k0-skew > k {
			k = k0 - skew
		}
		lo, hi := in[0].TS+1000, in.MaxTS()-1000
		mixed := runPerStreamK([]stream.Time{k0, k1}, in, equi2(), w, lo, hi)
		same := runPerStreamK([]stream.Time{k, k}, in, equi2(), w, lo, hi)
		difftest.Compare(t, fmt.Sprintf("skewed config %v against same-K %d", c, k), same, mixed)
	}
}
