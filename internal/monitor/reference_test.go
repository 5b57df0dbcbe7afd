package monitor

// The Result-Size Monitor as it was before points of one timestamp were
// merged and moved into recycled blocks: one point per AddResults call in a
// slice compacted once more than 1024 points are dead. Kept verbatim (names
// aside; it shares the package's State) as the reference the monitor must
// answer identically to.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stream"
)

// refPoint aggregates produced results sharing one timestamp.
type refPoint struct {
	ts stream.Time
	n  int64
}

// refMonitor tracks produced result sizes within the last P−L time units and a
// ring of the last (P−L)/L per-interval N^on_true(L) estimates.
type refMonitor struct {
	span stream.Time // P − L

	points   []refPoint // points[head:] live, ordered by ts
	head     int
	produced int64 // total produced within [now-span, now]

	trueRing []float64
	trueHead int
	trueCap  int
	trueSum  float64
}

// New creates a monitor. span is P−L; intervals is (P−L)/L, the number of
// per-interval true-size estimates to retain (≥ 0).
func newRef(span stream.Time, intervals int) *refMonitor {
	if span < 0 {
		span = 0
	}
	if intervals < 0 {
		intervals = 0
	}
	return &refMonitor{span: span, trueCap: intervals}
}

// AddResults records n produced results with timestamp ts. Results may
// arrive with non-monotone timestamps; pruning happens against the advancing
// logical now, not against result order.
func (m *refMonitor) AddResults(ts stream.Time, n int64) {
	if n <= 0 {
		return
	}
	m.points = append(m.points, refPoint{ts: ts, n: n})
	m.produced += n
}

// Advance prunes results whose timestamps have fallen out of the window.
// The boundary convention is shared with the join operator's windows
// (scope [now − span, now], expired means strictly older): a result at
// exactly now − span is still counted, only ts < now − span is pruned.
// Points are appended in near-timestamp order, so the prune walks the live
// prefix.
func (m *refMonitor) Advance(now stream.Time) {
	bound := now - m.span
	for m.head < len(m.points) && m.points[m.head].ts < bound {
		m.produced -= m.points[m.head].n
		m.head++
	}
	if m.head > 1024 && m.head > len(m.points)/2 {
		n := copy(m.points, m.points[m.head:])
		m.points = m.points[:n]
		m.head = 0
	}
}

// Produced returns N^on_prod(P−L): the produced result count within the
// window as of the last Advance.
func (m *refMonitor) Produced() int64 { return m.produced }

// PushTrueEstimate records the model's estimate of N^on_true(L) for the
// interval that just ended.
func (m *refMonitor) PushTrueEstimate(n float64) {
	if m.trueCap == 0 {
		return
	}
	if len(m.trueRing) < m.trueCap {
		m.trueRing = append(m.trueRing, n)
		m.trueSum += n
		return
	}
	m.trueSum += n - m.trueRing[m.trueHead]
	m.trueRing[m.trueHead] = n
	m.trueHead = (m.trueHead + 1) % m.trueCap
}

// TrueEstimate returns N^on_true(P−L): the sum of the retained per-interval
// estimates (Sec. IV-C).
func (m *refMonitor) TrueEstimate() float64 { return m.trueSum }

// State captures the monitor's state.
func (m *refMonitor) State() State {
	st := State{}
	for _, p := range m.points[m.head:] {
		st.PointTS = append(st.PointTS, p.ts)
		st.PointN = append(st.PointN, p.n)
	}
	n := len(m.trueRing)
	for i := 0; i < n; i++ {
		j := i
		if n == m.trueCap {
			j = (m.trueHead + i) % n
		}
		st.True = append(st.True, m.trueRing[j])
	}
	return st
}

// Restore loads a captured state into a freshly constructed monitor (same
// span and interval count). The estimate ring re-enters oldest-first, which
// reproduces both the filling and the saturated layouts.
func (m *refMonitor) Restore(st State) {
	m.points = m.points[:0]
	m.head = 0
	m.produced = 0
	for i := range st.PointTS {
		m.points = append(m.points, refPoint{ts: st.PointTS[i], n: st.PointN[i]})
		m.produced += st.PointN[i]
	}
	m.trueRing = nil
	m.trueHead = 0
	m.trueSum = 0
	for _, v := range st.True {
		m.PushTrueEstimate(v)
	}
}

// mergeRuns sums each run of adjacent points of one timestamp into one
// point, in place.
func mergeRuns(st State) State {
	k := 0
	for i, ts := range st.PointTS {
		if k > 0 && st.PointTS[k-1] == ts {
			st.PointN[k-1] += st.PointN[i]
			continue
		}
		st.PointTS[k], st.PointN[k] = ts, st.PointN[i]
		k++
	}
	st.PointTS, st.PointN = st.PointTS[:k], st.PointN[:k]
	return st
}

// TestMonitorMatchesReference drives the monitor and the reference with one
// random sequence of AddResults, Advance, PushTrueEstimate and State→Restore
// round trips — timestamps that drift forward in runs of equal values and
// now and then step back, counts ≤ 0, bounds that repeat and that land on
// live timestamps — and after every step holds Produced, TrueEstimate and
// the live points to the reference's. The monitor's points must be the
// reference's with each run of adjacent points of one timestamp summed into
// one, so the per-timestamp sums match and no two adjacent points share a
// timestamp. A second part climbs through timestamp steps and counts of
// every encoded length, from 0 and up to math.MaxInt64. Three mutations of
// internal/fifo each fail it:
//   - an entry allowed to straddle a block (last = BlockBytes − 9 in place
//     of BlockBytes − MaxEntry): an index panic in the second part;
//   - a zigzag write decoded as unsigned (unzigzag returning int64(u)):
//     seed 1, step 14;
//   - the open point's count dropped on a block switch (Push clearing the
//     count's length in the tag of a point that closes its block): the
//     second part, from 0, at point 576.
func TestMonitorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := stream.Time(rng.Intn(40))
		intervals := rng.Intn(5)
		m, ref := New(span, intervals), newRef(span, intervals)
		ts, now := stream.Time(0), stream.Time(0)
		for step := 0; step < 1500; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 55:
				switch rng.Intn(10) {
				case 0: // a step back
					ts -= stream.Time(1 + rng.Intn(15))
				case 1, 2, 3:
					ts += stream.Time(1 + rng.Intn(3))
				} // otherwise a run of equal timestamps
				n := int64(rng.Intn(8) - 2)
				op = fmt.Sprintf("AddResults(%d, %d)", ts, n)
				m.AddResults(ts, n)
				ref.AddResults(ts, n)
			case r < 85:
				switch rng.Intn(4) {
				case 0: // the same bound again
				case 1: // a bound on the newest timestamp
					now = ts + span
				default:
					now += stream.Time(rng.Intn(6))
				}
				op = fmt.Sprintf("Advance(%d)", now)
				m.Advance(now)
				ref.Advance(now)
			case r < 92:
				v := float64(rng.Intn(1000))
				op = fmt.Sprintf("PushTrueEstimate(%v)", v)
				m.PushTrueEstimate(v)
				ref.PushTrueEstimate(v)
			default:
				// Round trips: the monitor through its own state, the
				// reference through its own; now and then the monitor is
				// loaded from the reference's one-point-per-result state.
				st, rst := m.State(), ref.State()
				m, ref = New(span, intervals), newRef(span, intervals)
				if rng.Intn(3) == 0 {
					st = rst
				}
				op = "State→Restore"
				m.Restore(st)
				ref.Restore(rst)
			}
			sameAsRef(t, fmt.Sprintf("seed %d step %d %s", seed, step, op), m, ref)
		}
	}
	// Timestamp steps and counts on either side of every change in an
	// encoded point's length: each row of points climbs through the edges
	// from 0, or up to just under math.MaxInt64, then steps back to its
	// start; each count is merged with a 1 into its timestamp's point. The
	// rows repeat until the points have filled several blocks, with one
	// State→Restore round trip half-way. Produced is compared after every
	// point, the points themselves after every sixteenth.
	edges := []int64{0, 1, 63, 64, 127, 128, 8191, 8192, 32767, 32768,
		1<<23 - 1, 1 << 23, 1<<31 - 1, 1 << 31, 1<<39 - 1, 1 << 39, 1<<47 - 1, 1 << 47, 1<<55 - 1, 1 << 55, 1 << 62}
	for _, top := range []bool{false, true} {
		const span, rows = 1 << 40, 4 * 21
		m, ref := New(span, 3), newRef(span, 3)
		for k := 0; k < rows*len(edges); k++ {
			n, j := edges[k/len(edges)%len(edges)], k%len(edges)
			ts := stream.Time(edges[j])
			if top {
				ts = math.MaxInt64 - 1 - stream.Time(edges[len(edges)-1-j])
			}
			m.AddResults(ts, n)
			ref.AddResults(ts, n)
			m.AddResults(ts, 1)
			ref.AddResults(ts, 1)
			if k%97 == 0 {
				m.Advance(ts)
				ref.Advance(ts)
			}
			if k == rows*len(edges)/2 {
				st, rst := m.State(), ref.State()
				m, ref = New(span, 3), newRef(span, 3)
				m.Restore(st)
				ref.Restore(rst)
			}
			if m.Produced() != ref.Produced() || k%16 == 0 || k == rows*len(edges)-1 {
				sameAsRef(t, fmt.Sprintf("top %v point %d: AddResults(%d, %d)", top, k, ts, n), m, ref)
			}
		}
		if m.points.Blocks() < 3 {
			t.Fatalf("top %v: the points never filled a block; no block switch was tested", top)
		}
	}
}

// sameAsRef holds the monitor's Produced, TrueEstimate and live points to
// the reference's, whose adjacent points of one timestamp are summed.
func sameAsRef(t *testing.T, at string, m *Monitor, ref *refMonitor) {
	t.Helper()
	st, rst := m.State(), ref.State()
	if m.Produced() != ref.Produced() || m.TrueEstimate() != ref.TrueEstimate() {
		t.Fatalf("%s: Produced %d / TrueEstimate %v, reference %d / %v",
			at, m.Produced(), m.TrueEstimate(), ref.Produced(), ref.TrueEstimate())
	}
	if want := mergeRuns(rst); !slices.Equal(st.PointTS, want.PointTS) || !slices.Equal(st.PointN, want.PointN) {
		t.Fatalf("%s: points %v × %v, reference merged %v × %v",
			at, st.PointTS, st.PointN, want.PointTS, want.PointN)
	}
}
