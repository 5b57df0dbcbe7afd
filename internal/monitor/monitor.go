// Package monitor implements the Result-Size Monitor of Fig. 2: a sliding
// window of P−L time units over the stream of produced join results, plus a
// short history of per-interval true-result-size estimates. Both feed the
// derivation of the instant recall requirement Γ′ (Eq. 7, Sec. IV-C).
//
// The window only has to answer one question, N^on_prod(P−L), so it keeps one
// point per result timestamp: a result whose timestamp equals the newest live
// point's is added to that point. Advance pops a prefix while ts < bound, so
// two adjacent points of one timestamp always leave together and the merge
// changes no count. The operator reports results for in-order arrivals only,
// whose timestamps do not decrease, so the window holds at most one point per
// time unit from the last Advance's bound to the newest result: P + 1 points
// when decisions come every L (60,001 at P = 60 s in milliseconds), whatever
// the arrival rate. The points sit in a fifo.Pairs, each as two zigzag
// varints — its timestamp less the previous point's, which measures smaller
// than the timestamp itself, and its count — so a point takes 3 to 5 bytes
// on x3 where two int64s took 16; the FIFO retains its live high-water mark
// once and never copies at a decision. The newest point stays open in the
// Monitor until a result of another timestamp arrives.
package monitor

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/stream"
)

// resultPoint aggregates produced results sharing one timestamp.
type resultPoint struct {
	ts stream.Time
	n  int64
}

// Monitor tracks produced result sizes within the last P−L time units and a
// ring of the last (P−L)/L per-interval N^on_true(L) estimates.
type Monitor struct {
	span stream.Time // P − L

	points   fifo.Pairs  // live as (ts − the previous point's ts, n), in append order, but for the newest
	poppedTS stream.Time // ts of the last point popped: the base of the oldest's delta
	pushedTS stream.Time // ts of the newest point pushed: the base of the next one's delta
	open     resultPoint // the newest point, still absorbing its timestamp; live when n > 0
	produced int64       // total produced within [now-span, now]

	trueRing []float64
	trueHead int
	trueCap  int
	trueSum  float64
}

// New creates a monitor. span is P−L; intervals is (P−L)/L, the number of
// per-interval true-size estimates to retain (≥ 0).
func New(span stream.Time, intervals int) *Monitor {
	if span < 0 {
		span = 0
	}
	if intervals < 0 {
		intervals = 0
	}
	return &Monitor{span: span, trueCap: intervals}
}

// AddResults records n produced results with timestamp ts. Results may
// arrive with non-monotone timestamps; pruning happens against the advancing
// logical now, not against result order. Only the newest point absorbs an
// equal timestamp: merging into an older one could hold results past a
// point that leaves before them.
//
// Whether ts repeats the newest point's is a coin toss on real feeds (64 %
// of x3's calls do), so the branch on it mispredicts. Writing the open
// point on every call and committing it through a mask avoided that while
// a point was a 16-byte store; encoding it on every call costs more than
// the mispredictions, so a point is encoded once, when it closes.
func (m *Monitor) AddResults(ts stream.Time, n int64) {
	if n <= 0 {
		return
	}
	m.produced += n
	if ts == m.open.ts {
		m.open.n += n
		return
	}
	if m.open.n > 0 {
		m.points.Push(int64(m.open.ts-m.pushedTS), m.open.n)
		m.pushedTS = m.open.ts
	}
	m.open = resultPoint{ts: ts, n: n}
}

// Advance prunes results whose timestamps have fallen out of the window.
// The boundary convention is shared with the join operator's windows
// (scope [now − span, now], expired means strictly older): a result at
// exactly now − span is still counted, only ts < now − span is pruned.
// Points are appended in near-timestamp order, so the prune walks the live
// prefix; the open point, the newest, goes last.
func (m *Monitor) Advance(now stream.Time) {
	bound := now - m.span
	for m.points.Len() > 0 {
		dts, n := m.points.Front()
		ts := m.poppedTS + stream.Time(dts)
		if ts >= bound {
			break
		}
		m.points.Drop()
		m.poppedTS = ts
		m.produced -= n
	}
	if m.points.Len() == 0 && m.open.n > 0 && m.open.ts < bound {
		m.produced -= m.open.n
		m.open.n = 0
	}
}

// Produced returns N^on_prod(P−L): the produced result count within the
// window as of the last Advance.
func (m *Monitor) Produced() int64 { return m.produced }

// PushTrueEstimate records the model's estimate of N^on_true(L) for the
// interval that just ended.
func (m *Monitor) PushTrueEstimate(n float64) {
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
func (m *Monitor) TrueEstimate() float64 { return m.trueSum }

// State is the serializable snapshot of a Monitor.
type State struct {
	PointTS []stream.Time // live result points, in append order
	PointN  []int64
	True    []float64 // retained estimates, oldest first
	// TrueSum is the running sum behind TrueEstimate, which rounds
	// differently from True summed afresh. gob drops a zero value, so
	// HasTrueSum marks a state that carries it; Restore re-sums True for
	// a state captured before the sum was carried.
	TrueSum    float64
	HasTrueSum bool
}

// State captures the monitor's state.
func (m *Monitor) State() State {
	st := State{TrueSum: m.trueSum, HasTrueSum: true}
	n := m.points.Len()
	if m.open.n > 0 {
		n++
	}
	if n > 0 {
		st.PointTS, st.PointN = make([]stream.Time, 0, n), make([]int64, 0, n)
		ts := m.poppedTS
		for dts, pn := range m.points.All() {
			ts += stream.Time(dts)
			st.PointTS, st.PointN = append(st.PointTS, ts), append(st.PointN, pn)
		}
		if m.open.n > 0 {
			st.PointTS, st.PointN = append(st.PointTS, m.open.ts), append(st.PointN, m.open.n)
		}
	}
	if n := len(m.trueRing); n > 0 {
		st.True = make([]float64, n)
		for i := range st.True {
			j := i
			if n == m.trueCap {
				j = (m.trueHead + i) % n
			}
			st.True[i] = m.trueRing[j]
		}
	}
	return st
}

// Restore loads a captured state into a freshly constructed monitor (same
// span and interval count). Points re-enter through the merge, so a state
// that holds one point per result reloads as one point per timestamp. The
// estimate ring re-enters oldest-first, which reproduces both the filling
// and the saturated layouts, and the running sum is the captured one. It
// panics with a "monitor: restore: …" message on a state no such monitor
// can have produced: point timestamps and counts of different lengths, a
// point of count ≤ 0, or more estimates than the ring holds.
func (m *Monitor) Restore(st State) {
	if len(st.PointTS) != len(st.PointN) {
		panic(fmt.Sprintf("monitor: restore: %d point timestamps and %d point counts", len(st.PointTS), len(st.PointN)))
	}
	if len(st.True) > m.trueCap {
		panic(fmt.Sprintf("monitor: restore: %d true-size estimates into a ring of %d", len(st.True), m.trueCap))
	}
	m.points.Reset()
	m.poppedTS, m.pushedTS = 0, 0
	m.open = resultPoint{}
	m.produced = 0
	for i, n := range st.PointN {
		if n <= 0 {
			panic(fmt.Sprintf("monitor: restore: point %d has count %d", i, n))
		}
		m.AddResults(st.PointTS[i], n)
	}
	m.trueRing = nil
	m.trueHead = 0
	m.trueSum = 0
	for _, v := range st.True {
		m.PushTrueEstimate(v)
	}
	if st.HasTrueSum {
		m.trueSum = st.TrueSum
	}
}
