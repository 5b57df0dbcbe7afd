package profiler

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hist"
	"repro/internal/stream"
)

// disableGuard lifts the minimum-sample guard so the Eq. (6) arithmetic can
// be verified on tiny hand-built examples.
func disableGuard(t *testing.T) {
	t.Helper()
	old := minSelSamples
	minSelSamples = 0
	t.Cleanup(func() { minSelSamples = old })
}

func TestSelRatioNeutralCases(t *testing.T) {
	p := New(10)
	s := p.Snapshot()
	if s.SelRatio(0) != 1 {
		t.Fatal("empty snapshot must yield neutral ratio")
	}
	p.RecordInOrder(0, 0, 0)
	s = p.Snapshot()
	if s.SelRatio(100) != 1 {
		t.Fatal("all-zero counts must yield neutral ratio")
	}
}

// TestSelRatioEq6 exercises Eq. (6) on a hand-computed example.
func TestSelRatioEq6(t *testing.T) {
	disableGuard(t)
	p := New(10)
	// Delay bucket 0: 10 cross, 5 matched → sel 0.5.
	p.RecordInOrder(0, 10, 5)
	// Delay bucket 2 (delay 15): 10 cross, 1 matched → low-productivity late
	// tuples.
	p.RecordInOrder(15, 10, 1)
	s := p.Snapshot()

	// K = 0 → only bucket 0 counted: (5/10) / (6/20) = 0.5 / 0.3.
	want := (5.0 / 10.0) * (20.0 / 6.0)
	if got := s.SelRatio(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SelRatio(0) = %v, want %v", got, want)
	}
	// K = 20 covers both buckets → ratio 1.
	if got := s.SelRatio(20); math.Abs(got-1) > 1e-12 {
		t.Fatalf("SelRatio(20) = %v, want 1", got)
	}
	// K = 10 covers bucket 1 (empty) but not bucket 2 → same as K=0.
	if got := s.SelRatio(10); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SelRatio(10) = %v", got)
	}
}

// TestSelRatioHighProductivityLateTuples: when delayed tuples are MORE
// productive (DPcorr), small K must show a ratio < 1, steering the model to
// larger buffers — the NonEqSel advantage.
func TestSelRatioHighProductivityLateTuples(t *testing.T) {
	disableGuard(t)
	p := New(10)
	p.RecordInOrder(0, 10, 1)  // punctual tuples barely productive
	p.RecordInOrder(25, 10, 9) // late tuples highly productive
	s := p.Snapshot()
	if r := s.SelRatio(0); r >= 1 {
		t.Fatalf("SelRatio(0) = %v, want < 1", r)
	}
	if r := s.SelRatio(30); math.Abs(r-1) > 1e-12 {
		t.Fatalf("full-coverage ratio = %v, want 1", r)
	}
}

func TestOutOfOrderEstimation(t *testing.T) {
	disableGuard(t)
	p := New(10)
	p.RecordInOrder(0, 4, 2)
	p.RecordInOrder(0, 8, 3) // interval maxima: cross 8, on 3
	p.RecordOutOfOrder(35)   // bucket 4: max-charged in M^on/M×, mean-charged in TrueResults
	s := p.Snapshot()
	if s.MaxChargedOn() != 2+3+3 {
		t.Fatalf("MaxChargedOn = %d, want 8", s.MaxChargedOn())
	}
	if got, want := s.TrueResults(), 2+3+2.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("TrueResults = %v, want %v (mean charge)", got, want)
	}
	if got, want := s.TrueCross(), 4+8+6.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("TrueCross = %v, want %v", got, want)
	}
	// The charge must land at the out-of-order tuple's delay bucket.
	if r := s.SelRatio(30); r == 1 {
		t.Fatal("bucket-4 charge must affect ratios below its delay")
	}
	if r := s.SelRatio(40); math.Abs(r-1) > 1e-12 {
		t.Fatalf("covering the charge must neutralize the ratio, got %v", r)
	}
}

func TestResetClearsInterval(t *testing.T) {
	p := New(10)
	p.RecordInOrder(0, 5, 5)
	p.RecordOutOfOrder(10)
	p.Reset()
	s := p.Snapshot()
	if s.TrueResults() != 0 || s.TrueCross() != 0 {
		t.Fatal("reset must clear the maps")
	}
	if p.InOrderCount() != 0 {
		t.Fatal("reset must clear counters")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	p := New(10)
	p.RecordInOrder(0, 10, 5)
	s := p.Snapshot()
	p.RecordInOrder(0, 100, 50) // after snapshot
	if s.TrueResults() != 5 {
		t.Fatal("snapshot must not observe later records")
	}
}

func TestGranularityDefault(t *testing.T) {
	p := New(0)
	p.RecordInOrder(3, 1, 1) // must not panic; bucket 3 at g=1
	s := p.Snapshot()
	if s.TrueResults() != 1 {
		t.Fatal("record lost")
	}
}

// TestSnapshotMatchesFoldedMaps holds the map-free snapshot against the
// folded maps M^on/M× it replaced, built naively here: over random
// intervals — through Reset and a State/Restore round trip — every SelRatio
// query, both totals and the true-size estimates agree exactly, and an
// out-of-order straggler of any delay sizes nothing.
func TestSnapshotMatchesFoldedMaps(t *testing.T) {
	disableGuard(t)
	rng := rand.New(rand.NewSource(4))
	p := New(10)
	for interval := 0; interval < 40; interval++ {
		mOn, mCross := map[int]int64{}, map[int]int64{}
		var maxOn, maxCross, sumOn, sumCross, inOrder int64
		var ooo []int
		for i, n := 0, rng.Intn(300); i < n; i++ {
			d := stream.Time(rng.Intn(900))
			if rng.Intn(5) == 0 {
				if rng.Intn(10) == 0 {
					d = 1 << 50 // a stale timestamp
				}
				p.RecordOutOfOrder(d)
				ooo = append(ooo, hist.Bucket(d, 10))
				continue
			}
			cross, on := int64(rng.Intn(50)), int64(rng.Intn(9))
			p.RecordInOrder(d, cross, on)
			b := hist.Bucket(d, 10)
			mOn[b] += on
			mCross[b] += cross
			maxOn, maxCross = max(maxOn, on), max(maxCross, cross)
			sumOn, sumCross, inOrder = sumOn+on, sumCross+cross, inOrder+1
		}
		if interval%3 == 1 { // a checkpoint mid-interval
			q := New(10)
			q.Restore(p.State())
			p = q
		}
		s := p.Snapshot()
		if len(p.n) > 91 {
			t.Fatalf("interval %d: accumulators sized %d by an out-of-order delay", interval, len(p.n))
		}
		maxDM := -1
		for _, d := range ooo {
			mOn[d] += maxOn
			mCross[d] += maxCross
		}
		var totOn, totCross int64
		for d := range mCross {
			maxDM = max(maxDM, d)
			totOn, totCross = totOn+mOn[d], totCross+mCross[d]
		}
		if s.totOn != totOn || s.totCross != totCross || s.maxDM != maxDM {
			t.Fatalf("interval %d: totals (%d, %d, maxDM %d), want (%d, %d, %d)", interval, s.totOn, s.totCross, s.maxDM, totOn, totCross, maxDM)
		}
		wantTrue := float64(sumOn)
		if inOrder > 0 && len(ooo) > 0 {
			wantTrue += float64(len(ooo)) * float64(sumOn) / float64(inOrder)
		}
		if s.TrueResults() != wantTrue {
			t.Fatalf("interval %d: TrueResults %v, want %v", interval, s.TrueResults(), wantTrue)
		}
		for _, k := range []stream.Time{0, 5, 10, 250, 890, 900, 5000, 1 << 51} {
			var on, cross int64
			for d := range mCross {
				if d <= int(min(k/10, stream.Time(maxDM))) {
					on, cross = on+mOn[d], cross+mCross[d]
				}
			}
			want := 1.0
			if maxDM >= 0 && cross != 0 && on != 0 && totOn != 0 && totCross != 0 {
				want = (float64(on) / float64(cross)) * (float64(totCross) / float64(totOn))
			}
			if got := s.SelRatio(k); got != want {
				t.Fatalf("interval %d: SelRatio(%d) = %v, want %v", interval, k, got, want)
			}
		}
		p.Reset()
	}
}

// TestSelRatioBoundCoversRange: over random intervals — with prefixes of
// coarse delays that derived no results or had no cross-join at all, and
// out-of-order stragglers of any delay — SelRatioBound(lo, hi) is never
// below SelRatio(k) for any lo ≤ k ≤ hi.
func TestSelRatioBoundCoversRange(t *testing.T) {
	disableGuard(t)
	rng := rand.New(rand.NewSource(25))
	p := New(10)
	for interval := 0; interval < 300; interval++ {
		zeroCross, zeroOn := rng.Intn(20), rng.Intn(40)
		for i, n := 0, rng.Intn(200); i < n; i++ {
			d := stream.Time(rng.Intn(900))
			if rng.Intn(6) == 0 {
				p.RecordOutOfOrder(d * stream.Time(1+rng.Intn(3)))
				continue
			}
			cross, on := int64(rng.Intn(50)), int64(rng.Intn(9))
			if b := hist.Bucket(d, 10); b < zeroCross {
				cross, on = 0, 0
			} else if b < zeroOn {
				on = 0
			}
			p.RecordInOrder(d, cross, on)
		}
		s := p.Snapshot()
		for q := 0; q < 50; q++ {
			lo := stream.Time(rng.Intn(120)) * 10
			hi := lo + stream.Time(rng.Intn(32))*10
			bound := s.SelRatioBound(lo, hi)
			for k := lo; k <= hi; k += 10 {
				if r := s.SelRatio(k); !(r <= bound) {
					t.Fatalf("interval %d: SelRatio(%d) = %v above SelRatioBound(%d, %d) = %v", interval, k, r, lo, hi, bound)
				}
			}
		}
		p.Reset()
	}
}

// TestLazySortMatchesEager: a snapshot sorts its out-of-order delays on the
// first ratio query, not when it is taken. Taken, then followed by a Reset
// and a fresh interval's records — the order in which the feedback loop
// drives it — it must answer every SelRatio and SelRatioBound exactly as a
// copy sorted when it was taken. Sorting the profiler's pending delays in
// place rather than the snapshot's own copy fails it: the fresh interval
// overwrites them.
func TestLazySortMatchesEager(t *testing.T) {
	disableGuard(t)
	rng := rand.New(rand.NewSource(39))
	p := New(10)
	record := func() {
		for i, n := 0, rng.Intn(400); i < n; i++ {
			d := stream.Time(rng.Intn(900))
			if rng.Intn(3) == 0 {
				p.RecordOutOfOrder(d * stream.Time(1+rng.Intn(4)))
				continue
			}
			p.RecordInOrder(d, int64(rng.Intn(50)), int64(rng.Intn(9)))
		}
	}
	record()
	for interval := 0; interval < 200; interval++ {
		s := p.Snapshot()
		eager := *s
		eager.ooo = slices.Clone(s.ooo)
		slices.Sort(eager.ooo)
		eager.sorted = true
		p.Reset()
		record() // the next interval, before the decision reads the snapshot
		for q := 0; q < 40; q++ {
			lo := stream.Time(rng.Intn(400)) * 10
			hi := lo + stream.Time(rng.Intn(64))*10
			if got, want := s.SelRatio(lo), eager.SelRatio(lo); got != want {
				t.Fatalf("interval %d: SelRatio(%d) = %v, eagerly sorted %v", interval, lo, got, want)
			}
			if got, want := s.SelRatioBound(lo, hi), eager.SelRatioBound(lo, hi); got != want {
				t.Fatalf("interval %d: SelRatioBound(%d, %d) = %v, eagerly sorted %v", interval, lo, hi, got, want)
			}
		}
	}
}

// BenchmarkSnapshot prices taking one interval's snapshot — ≈ 2 700
// in-order and 900 out-of-order records — alone, as the NoK, Static and MaxK
// policies take it, and followed by one SelRatio query, which sorts the
// out-of-order delays as the model policy's first query does.
func BenchmarkSnapshot(b *testing.B) {
	for _, query := range []bool{false, true} {
		name := "snapshot"
		if query {
			name = "snapshot+selratio"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p := New(10)
			for i := 0; i < 3600; i++ {
				d := stream.Time(rng.ExpFloat64() * 300)
				if i%4 == 0 {
					p.RecordOutOfOrder(d + 800)
					continue
				}
				p.RecordInOrder(d, 40, int64(rng.Intn(8)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := p.Snapshot()
				if query {
					ratioSink = s.SelRatio(500)
				}
			}
		})
	}
}

var ratioSink float64
