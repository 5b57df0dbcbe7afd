// Package monitor implements the Result-Size Monitor of Fig. 2: a sliding
// window of P−L time units over the stream of produced join results, plus a
// short history of per-interval true-result-size estimates. Both feed the
// derivation of the instant recall requirement Γ′ (Eq. 7, Sec. IV-C).
package monitor

import "repro/internal/stream"

// resultPoint aggregates produced results sharing one timestamp.
type resultPoint struct {
	ts stream.Time
	n  int64
}

// Monitor tracks produced result sizes within the last P−L time units and a
// ring of the last (P−L)/L per-interval N^on_true(L) estimates.
type Monitor struct {
	span stream.Time // P − L

	points   []resultPoint // points[head:] live, ordered by ts
	head     int
	produced int64 // total produced within [now-span, now]

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
// logical now, not against result order.
func (m *Monitor) AddResults(ts stream.Time, n int64) {
	if n <= 0 {
		return
	}
	m.points = append(m.points, resultPoint{ts: ts, n: n})
	m.produced += n
}

// Advance prunes results whose timestamps have fallen out of the window.
// The boundary convention is shared with the join operator's windows
// (scope [now − span, now], expired means strictly older): a result at
// exactly now − span is still counted, only ts < now − span is pruned.
// Points are appended in near-timestamp order, so the prune walks the live
// prefix.
func (m *Monitor) Advance(now stream.Time) {
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
}

// State captures the monitor's state.
func (m *Monitor) State() State {
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
func (m *Monitor) Restore(st State) {
	m.points = m.points[:0]
	m.head = 0
	m.produced = 0
	for i := range st.PointTS {
		m.points = append(m.points, resultPoint{ts: st.PointTS[i], n: st.PointN[i]})
		m.produced += st.PointN[i]
	}
	m.trueRing = nil
	m.trueHead = 0
	m.trueSum = 0
	for _, v := range st.True {
		m.PushTrueEstimate(v)
	}
}
