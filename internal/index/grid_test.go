package index

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// gent is a grid test entry: its keys and its (ts, seq) order position.
type gent struct {
	a, b float64
	ts   int64
	seq  uint64
}

func ulps(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestBandGridMatchesReference replays random feeds — late inserts, expiry
// in (ts, seq) order and out-of-order removals — through a Grid and through
// the index it replaced (reference_test.go: Sorted probed with the
// edge-trimmed view, the second band a residual sweep over it). Every probe
// must return the reference's candidates, in the grid's documented order:
// ascending (x, y) cell, (ts, seq) within a cell. Keys include ±Inf, ±0,
// NaN, 1e9 and keys a few ulps from either band edge of the probe centers;
// centers include the non-finite ones. Each of these mutations fails it:
// the cell loop in AppendBand stopping one cell short, the second
// dimension's check dropped, a late insert appended at its chain's tail.
func TestBandGridMatchesReference(t *testing.T) {
	for _, twoD := range []bool{false, true} {
		for _, eps := range []float64{0, 1e-9, 0.3, 5} {
			t.Run(fmt.Sprintf("2d=%v/eps=%v", twoD, eps), func(t *testing.T) {
				for seed := int64(1); seed <= 12; seed++ {
					gridVsReference(t, seed, twoD, eps)
				}
			})
		}
	}
}

func gridVsReference(t *testing.T, seed int64, twoD bool, eps float64) {
	rng := rand.New(rand.NewSource(seed))
	// The second dimension gets another width, so a check of one dimension
	// against the other's width shows.
	epsB := map[float64]float64{0: 0.3, 1e-9: 0, 0.3: 5, 5: 1e-9}[eps]
	g := NewGrid(before, eps)
	if twoD {
		g = NewGrid(before, eps, epsB)
	}
	centers := []float64{0, math.Copysign(0, -1), 0.1, 1, 5, 1e3 + 0.1, 1e9, -1e9 - 0.7}
	key := func(e float64) float64 {
		switch rng.Intn(8) {
		case 0:
			return []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 1e9}[rng.Intn(6)]
		case 1, 2:
			c := centers[rng.Intn(len(centers))]
			edge := c - e
			if rng.Intn(2) == 0 {
				edge = c + e
			}
			return ulps(edge, rng.Intn(7)-3)
		case 3:
			return centers[rng.Intn(len(centers))]
		case 4, 5:
			return float64(rng.Intn(24)) / 2
		}
		return rng.Float64()*12 - 6
	}
	center := func(e float64) float64 {
		if rng.Intn(10) == 0 {
			return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		}
		if rng.Intn(2) == 0 {
			return centers[rng.Intn(len(centers))]
		}
		return key(e)
	}
	var ref Sorted[*gent]
	var live []*gent
	var clock int64
	for op := 0; op < 500; op++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(live) == 0:
			clock += rng.Int63n(3)
			ts := clock
			if rng.Intn(4) == 0 {
				ts -= rng.Int63n(20) // late
			}
			e := &gent{a: key(eps), ts: ts, seq: uint64(op)}
			if twoD {
				e.b = key(epsB)
			}
			g.Add(e.a, e.b, e)
			ref.Add(e.a, e)
			live = append(live, e)
		default:
			// Expire the oldest entry, or (one in four) remove any.
			i := 0
			if r == 9 {
				i = rng.Intn(len(live))
			} else {
				for j, e := range live {
					if before(e, live[i]) {
						i = j
					}
				}
			}
			e := live[i]
			g.Remove(e.a, e.b, e)
			ref.Remove(e.a, e)
			live = slices.Delete(live, i, i+1)
		}
		stored := 0
		for _, e := range live {
			if finite(e.a) && finite(e.b) {
				stored++
			}
		}
		if g.Len() != stored {
			t.Fatalf("seed %d op %d: Len %d, want %d", seed, op, g.Len(), stored)
		}
		for probe := 0; probe < 3; probe++ {
			ca, cb := center(eps), center(epsB)
			var want []*gent
			for _, e := range trimmedView(&ref, func(e *gent) float64 { return e.a }, ca, eps) {
				if d := e.b - cb; !twoD || d >= -epsB && d <= epsB {
					want = append(want, e)
				}
			}
			slices.SortFunc(want, func(x, y *gent) int {
				if c := cmp.Compare(BandCell(x.a, eps), BandCell(y.a, eps)); c != 0 {
					return c
				}
				if twoD {
					if c := cmp.Compare(BandCell(x.b, epsB), BandCell(y.b, epsB)); c != 0 {
						return c
					}
				}
				if before(x, y) {
					return -1
				}
				return 1
			})
			got := g.AppendBand(nil, ca, cb)
			if !sameSetG(got, want) {
				t.Fatalf("seed %d op %d: probe (%v, %v) returned %d candidates, the reference %d", seed, op, ca, cb, len(got), len(want))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: probe (%v, %v) returned the reference's candidates out of the documented order", seed, op, ca, cb)
			}
		}
	}
}

func before(x, y *gent) bool { return x.ts < y.ts || x.ts == y.ts && x.seq < y.seq }

func sameSetG(a, b []*gent) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[*gent]int{}
	for _, e := range a {
		seen[e]++
	}
	for _, e := range b {
		if seen[e]--; seen[e] < 0 {
			return false
		}
	}
	return true
}

// TestBandGridDriftingDomainBounded: a band on an increasing attribute
// claims a new cell every few entries and empties the oldest, so dead cells
// pile up at the rate the domain drifts. The cell table must stay sized for
// the live cells (sweeps drop the dead ones, in place), the node pool must
// hold exactly the live entries, once warm the slide allocates nothing, and
// after thousands of in-place sweeps every live entry is still found.
func TestBandGridDriftingDomainBounded(t *testing.T) {
	const live = 200
	for _, twoD := range []bool{false, true} {
		g := NewGrid(before, 0.5)
		if twoD {
			g = NewGrid(before, 0.5, 2)
		}
		ring := make([]gent, live)
		n := 0
		slide := func() {
			e := &ring[n%live]
			if n >= live {
				g.Remove(e.a, e.b, e)
			}
			*e = gent{a: float64(n) * 0.37, ts: int64(n), seq: uint64(n)}
			if twoD {
				e.b = math.Mod(float64(n)*1.7, 50)
			}
			g.Add(e.a, e.b, e)
			n++
		}
		for n < 50000 {
			slide()
		}
		table, sweeps := len(g.slots), g.sweeps
		allocs := testing.AllocsPerRun(10, func() {
			for i := 0; i < 5000; i++ {
				slide()
			}
		})
		if allocs != 0 {
			t.Errorf("2d=%v: sliding over a drifting domain allocated %v times per 5000 entries", twoD, allocs)
		}
		if g.sweeps-sweeps < 100 {
			t.Errorf("2d=%v: %d sweeps — the run no longer measures the in-place sweep", twoD, g.sweeps-sweeps)
		}
		for i := range ring {
			e := &ring[i]
			if !slices.Contains(g.AppendBand(nil, e.a, e.b), e) {
				t.Fatalf("2d=%v: live entry (%v, %v) not found after the sweeps", twoD, e.a, e.b)
			}
		}
		if len(g.nodes) != live+1 || g.Len() != live {
			t.Errorf("2d=%v: node pool %d for %d live entries, want %d", twoD, len(g.nodes), g.Len(), live+1)
		}
		// ≤ 200 live cells: a sweep sizes the table to ≥ 4·201 → 1024.
		if len(g.slots) > 1024 || len(g.slots) != table {
			t.Errorf("2d=%v: cell table %d → %d slots for ≤ %d live cells", twoD, table, len(g.slots), live)
		}
	}
}

// TestBandGridHugeWidth: a width near the float range must not turn the
// overflowing probe bounds into a walk over 2³² cells.
func TestBandGridHugeWidth(t *testing.T) {
	g := NewGrid(before, math.MaxFloat64)
	e := &gent{a: -math.MaxFloat64}
	g.Add(e.a, 0, e)
	for _, c := range []float64{math.MaxFloat64, -math.MaxFloat64, 0} {
		lo, hi, _ := bandSpan(c, math.MaxFloat64)
		if hi-lo > 3 {
			t.Fatalf("center %v spans cells %d … %d", c, lo, hi)
		}
	}
	if got := g.AppendBand(nil, 0, 0); len(got) != 1 {
		t.Fatalf("|−MaxFloat64 − 0| ≤ MaxFloat64 matched %d entries, want 1", len(got))
	}
}
