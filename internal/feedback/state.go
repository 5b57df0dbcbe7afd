package feedback

import (
	"fmt"

	"repro/internal/monitor"
	"repro/internal/profiler"
	"repro/internal/stats"
	"repro/internal/stream"
)

// State is the serializable snapshot of a Loop between adaptation steps. It
// carries no tuple references: the Statistics Manager histories are delay and
// skew values, the profilers hold per-bucket counters, and the monitor holds
// (timestamp, count) points — so the loop checkpoints independently of the
// executor's window contents.
type State struct {
	Started bool
	NextAt  stream.Time
	MaxTS   stream.Time
	Ks      []stream.Time
	N       int64
	SumK    []float64 // per scope

	Profilers []profiler.State // per scope, mid-interval accumulation
	Stats     stats.State
	Monitor   monitor.State

	CumProduced int64
	CumTrue     float64
}

// State captures the loop's state. On an async loop it barriers the feeder
// first, so the snapshot is consistent with every Observe so far; callers
// must have quiesced their own deferred feeds (RecordInOrder etc.) already.
func (l *Loop) State() State {
	l.Sync()
	st := State{
		Started: l.started,
		NextAt:  l.nextAt,
		MaxTS:   l.maxTS,
		Ks:      append([]stream.Time(nil), l.ks...),
		N:       l.n,

		Stats:   l.stats.State(),
		Monitor: l.mon.State(),

		CumProduced: l.cumProduced,
		CumTrue:     l.cumTrue,
	}
	st.SumK = make([]float64, len(l.scopes))
	st.Profilers = make([]profiler.State, len(l.scopes))
	for i, sc := range l.scopes {
		st.SumK[i] = sc.sumK
		st.Profilers[i] = sc.prof.State()
	}
	return st
}

// Restore loads a captured state into a freshly constructed loop (same
// Config). The policy models themselves are decision-stateless — every input
// they read at the next boundary (histograms, ADWIN, K^sync, MaxDelay,
// monitor window) is restored here — so no model state is serialized. It
// panics with a "feedback: restore: …" message on a state captured from a
// loop of another shape: a different number of Ks, of per-scope K sums or
// of profilers than this loop has scopes.
func (l *Loop) Restore(st State) {
	if n := len(l.scopes); len(st.Ks) != n || len(st.SumK) != n || len(st.Profilers) != n {
		panic(fmt.Sprintf("feedback: restore: %d Ks, %d K sums and %d profilers into a loop of %d scopes", len(st.Ks), len(st.SumK), len(st.Profilers), n))
	}
	l.started = st.Started
	l.nextAt = st.NextAt
	l.maxTS = st.MaxTS
	copy(l.ks, st.Ks)
	l.n = st.N
	l.cumProduced = st.CumProduced
	l.cumTrue = st.CumTrue
	for i, sc := range l.scopes {
		sc.sumK = st.SumK[i]
		sc.prof.Restore(st.Profilers[i])
	}
	l.stats.Restore(st.Stats)
	l.mon.Restore(st.Monitor)
}

// RecordShed accounts a load-shed tuple to the scope's profiler: the drop
// depresses the recall estimate (mean-charged into N^on_true) without
// entering the Eq. (6) selectivity maps.
func (l *Loop) RecordShed(scope int, delay stream.Time) {
	l.scopes[scope].prof.RecordShed(delay)
}

// Score estimates the productivity of a tuple with the given delay under
// scope's current interval statistics; the load shedder evicts minimum-Score
// tuples first.
func (l *Loop) Score(scope int, delay stream.Time) float64 {
	return l.scopes[scope].prof.Score(delay)
}

// RecallEstimate returns the run-level recall estimate: cumulative produced
// results over the cumulative true-size estimate, capped at 1. Before the
// first decision there is no true-size estimate yet; the neutral 1 is
// returned.
func (l *Loop) RecallEstimate() float64 {
	if l.cumTrue <= 0 {
		return 1
	}
	r := float64(l.cumProduced) / l.cumTrue
	if r > 1 {
		return 1
	}
	return r
}
