// Package profiler implements the Tuple-Productivity Profiler of Sec. IV-B,
// which learns the correlation between the delay and the productivity of
// tuples (DPcorr) by monitoring the output of the join.
//
// For every in-order tuple e the join operator reports the cross-join result
// size n×(e) the tuple would derive and the number n^on(e) of results it
// actually derived. The profiler accumulates both per coarse-grained delay
// value into the maps M× and M^on. The productivity of an out-of-order tuple
// (for which no probing happened) is estimated conservatively as the maximum
// n^on / n× over all in-order tuples of the same adaptation interval.
//
// From the maps the profiler estimates the selectivity ratio
// sel^on(K) / sel^on of Eq. (6) for any candidate K, and the true result
// size N^on_true(L) of the last interval as ΣM^on[d].
package profiler

import (
	"math"
	"slices"

	"repro/internal/hist"
	"repro/internal/stream"
)

// Profiler accumulates productivity statistics for one adaptation interval.
type Profiler struct {
	g stream.Time

	// M^on, M× and the in-order tuple count, dense by coarse delay, and top,
	// the interval's largest in-order coarse delay (−1: none). Their common
	// length is the largest such delay so far + 1 — bounded by the applied K
	// plus the Synchronizer's slack, never by an out-of-order straggler —
	// and Reset clears [0, top] in place.
	on, cross, n []int64
	top          int

	sumOn, sumCross int64 // Σ on, Σ cross
	maxOn, maxCross int64
	inOrder         int64

	// pendingOOO holds the coarse delays of out-of-order tuples observed in
	// the current interval; Snapshot charges them once the interval's maxima
	// are known.
	pendingOOO []int
	// pendingShed holds the coarse delays of load-shed tuples: dropped
	// before reaching the join, their would-be contribution is mean-charged
	// into the N^on_true estimate so the recall accounting sees the loss.
	pendingShed []int

	snap Snapshot // the view Snapshot refills and returns
}

// New creates a profiler with delay coarsening granularity g (the K-search
// granularity of Alg. 3).
func New(g stream.Time) *Profiler {
	if g <= 0 {
		g = 1
	}
	return &Profiler{g: g, top: -1}
}

// cover raises top to coarse delay b, growing the accumulators to hold it.
func (p *Profiler) cover(b int) {
	p.top = b
	if d := b + 1 - len(p.n); d > 0 {
		p.on = append(p.on, make([]int64, d)...)
		p.cross = append(p.cross, make([]int64, d)...)
		p.n = append(p.n, make([]int64, d)...)
	}
}

// RecordInOrder accounts an in-order tuple with the given delay annotation.
func (p *Profiler) RecordInOrder(delay stream.Time, nCross, nOn int64) {
	b := hist.Bucket(delay, p.g)
	if b > p.top {
		p.cover(b)
	}
	p.on[b] += nOn
	p.cross[b] += nCross
	p.n[b]++
	p.sumOn += nOn
	p.sumCross += nCross
	if nOn > p.maxOn {
		p.maxOn = nOn
	}
	if nCross > p.maxCross {
		p.maxCross = nCross
	}
	p.inOrder++
}

// RecordOutOfOrder accounts an out-of-order tuple; its productivity is
// estimated at Snapshot time.
func (p *Profiler) RecordOutOfOrder(delay stream.Time) {
	p.pendingOOO = append(p.pendingOOO, hist.Bucket(delay, p.g))
}

// RecordShed accounts a load-shed tuple. Like out-of-order tuples it derived
// no results, but unlike them it never will: its mean-charge enters only the
// N^on_true estimate (recall accounting), never the Eq. (6) selectivity maps
// — shedding must depress the recall estimate, not distort the K search.
func (p *Profiler) RecordShed(delay stream.Time) {
	p.pendingShed = append(p.pendingShed, hist.Bucket(delay, p.g))
}

// Score estimates the productivity of a tuple with the given delay: the
// expected number of results an in-order tuple of that coarse delay derives,
// based on the current interval's M^on accumulation. Buckets without samples
// fall back to the interval mean. The load shedder drops minimum-Score
// tuples first.
func (p *Profiler) Score(delay stream.Time) float64 {
	if b := hist.Bucket(delay, p.g); b <= p.top && p.n[b] > 0 {
		return float64(p.on[b]) / float64(p.n[b])
	}
	if p.inOrder == 0 {
		return 0
	}
	return float64(p.sumOn) / float64(p.inOrder)
}

// InOrderCount returns the number of in-order tuples recorded this interval.
func (p *Profiler) InOrderCount() int64 { return p.inOrder }

// Snapshot is the view of one interval's productivity statistics with
// out-of-order estimates charged in. The profiler owns it: it stays as taken
// through later Record and Reset calls, and the next Snapshot call refills
// it.
//
// Out-of-order tuples are charged in two ways. The maps M× and M^on used by
// the selectivity ratio (Eq. 6) charge each out-of-order tuple the interval
// *maximum* in-order productivity, exactly as Sec. IV-B prescribes — the
// paper motivates the conservative choice when discussing Fig. 9. The
// N^on_true(L) estimate feeding the Γ′ derivation (Eq. 7) instead charges
// the interval *mean*: under heavy disorder the max-charge inflates the
// true-size estimate by the out-of-order fraction times max/mean, which
// saturates Γ′ at 1 and pins K at its maximum; Eq. 7 needs an unbiased
// estimate (documented as a deviation in DESIGN.md).
type Snapshot struct {
	g     stream.Time
	maxDM int // maximum coarse delay present in the maps, −1 when none

	// The maps, never materialised: prefix sums of the in-order part over
	// coarse delays (cumOn[d] = Σ_{d'≤d} on[d'], likewise cumCross) plus the
	// interval's out-of-order coarse delays in ascending order, each standing
	// for one (maxOn, maxCross) charge. SelRatio adds the two per query: a
	// lookup and a binary search, whatever delay a straggler carried.
	cumOn, cumCross []int64
	ooo             []int
	maxOn, maxCross int64
	totOn, totCross int64

	trueOn    float64 // mean-charged N^on_true(L) estimate
	trueCross float64
	inOrder   int64
}

// Snapshot charges the pending out-of-order estimates and returns the
// interval view. It does not reset the profiler; call Reset separately at
// the start of the next interval.
func (p *Profiler) Snapshot() *Snapshot {
	s := &p.snap
	s.g = p.g
	s.inOrder = p.inOrder
	s.maxOn, s.maxCross = p.maxOn, p.maxCross
	s.ooo = append(s.ooo[:0], p.pendingOOO...)
	slices.Sort(s.ooo)
	s.maxDM = p.top
	if k := len(s.ooo); k > 0 && s.ooo[k-1] > s.maxDM {
		s.maxDM = s.ooo[k-1]
	}
	s.cumOn, s.cumCross = s.cumOn[:0], s.cumCross[:0]
	var on, cross int64
	for d := 0; d <= p.top; d++ {
		on += p.on[d]
		cross += p.cross[d]
		s.cumOn = append(s.cumOn, on)
		s.cumCross = append(s.cumCross, cross)
	}
	s.totOn = p.sumOn + int64(len(s.ooo))*p.maxOn
	s.totCross = p.sumCross + int64(len(s.ooo))*p.maxCross
	// Unbiased true-size estimates: in-order sums plus the mean in-order
	// productivity per out-of-order tuple.
	s.trueOn = float64(p.sumOn)
	s.trueCross = float64(p.sumCross)
	if p.inOrder > 0 {
		// Out-of-order and load-shed tuples both derived nothing; both are
		// mean-charged into the true-size estimate. The difference is that a
		// shed tuple's loss is permanent, which is exactly why it must appear
		// here: recall = produced / N^on_true then reflects the drop.
		if lost := float64(len(p.pendingOOO) + len(p.pendingShed)); lost > 0 {
			s.trueOn += lost * float64(p.sumOn) / float64(p.inOrder)
			s.trueCross += lost * float64(p.sumCross) / float64(p.inOrder)
		}
	}
	return s
}

// Reset clears the profiler for the next adaptation interval.
func (p *Profiler) Reset() {
	clear(p.on[:p.top+1])
	clear(p.cross[:p.top+1])
	clear(p.n[:p.top+1])
	p.top = -1
	p.sumOn, p.sumCross = 0, 0
	p.maxOn, p.maxCross = 0, 0
	p.inOrder = 0
	p.pendingOOO = p.pendingOOO[:0]
	p.pendingShed = p.pendingShed[:0]
}

// State is the serializable snapshot of a Profiler mid-interval: the
// accumulators flattened to parallel slices over the coarse delays that saw
// an in-order tuple, in ascending order, so the serialized form is canonical.
type State struct {
	Buckets     []int // ascending
	On          []int64
	Cross       []int64
	N           []int64
	MaxOn       int64
	MaxCross    int64
	InOrder     int64
	PendingOOO  []int
	PendingShed []int
}

// State captures the profiler's mid-interval accumulation.
func (p *Profiler) State() State {
	st := State{
		MaxOn: p.maxOn, MaxCross: p.maxCross, InOrder: p.inOrder,
		PendingOOO:  append([]int(nil), p.pendingOOO...),
		PendingShed: append([]int(nil), p.pendingShed...),
	}
	for d, n := range p.n[:p.top+1] {
		if n != 0 {
			st.Buckets = append(st.Buckets, d)
			st.On = append(st.On, p.on[d])
			st.Cross = append(st.Cross, p.cross[d])
			st.N = append(st.N, n)
		}
	}
	return st
}

// Restore loads a captured state into a freshly constructed profiler (same
// granularity).
func (p *Profiler) Restore(st State) {
	p.Reset()
	for i, d := range st.Buckets {
		if d = min(d, hist.MaxBuckets-1); d > p.top {
			p.cover(d)
		}
		p.on[d] += st.On[i]
		p.cross[d] += st.Cross[i]
		p.n[d] += st.N[i]
		p.sumOn += st.On[i]
		p.sumCross += st.Cross[i]
	}
	p.maxOn, p.maxCross = st.MaxOn, st.MaxCross
	p.inOrder = st.InOrder
	p.pendingOOO = append(p.pendingOOO, st.PendingOOO...)
	p.pendingShed = append(p.pendingShed, st.PendingShed...)
}

// minSelSamples is the minimum number of in-order tuples an interval must
// have recorded before its selectivity ratio is trusted. Very short
// adaptation intervals (the paper sweeps L down to 100 ms, i.e. a few dozen
// arrivals) produce ratios dominated by sampling noise that bias the recall
// model; below the threshold the ratio degrades gracefully to the EqSel
// assumption of 1.
var minSelSamples int64 = 30

// SelRatio estimates sel^on(K)/sel^on per Eq. (6): the selectivity over
// tuples re-orderable with buffer size K, relative to the true selectivity
// (which a buffer of size MaxD^M would achieve). Degenerate denominators
// yield the neutral ratio 1, which reduces the model to EqSel behaviour.
func (s *Snapshot) SelRatio(k stream.Time) float64 {
	if s.neutral() {
		return 1
	}
	on, cross := s.prefix(k)
	if cross == 0 || on == 0 {
		return 1
	}
	return (float64(on) / float64(cross)) * (float64(s.totCross) / float64(s.totOn))
}

// SelRatioBound returns a value no SelRatio(k) with lo ≤ k ≤ hi exceeds.
// M^on and M× accumulate over the coarse delays, so on(k) ≤ on(hi) and
// cross(k) ≥ cross(lo), and rounding to nearest keeps that order through the
// two divisions and the product SelRatio computes in the same sequence. The
// neutral ratio 1 is covered where a k in the range may fall back to it: the
// bound is at least 1 when on(lo) = 0 and +Inf when cross(lo) = 0.
func (s *Snapshot) SelRatioBound(lo, hi stream.Time) float64 {
	if s.neutral() {
		return 1
	}
	onLo, crossLo := s.prefix(lo)
	if crossLo == 0 {
		return math.Inf(1)
	}
	onHi, _ := s.prefix(hi)
	r := (float64(onHi) / float64(crossLo)) * (float64(s.totCross) / float64(s.totOn))
	if onLo == 0 {
		r = max(r, 1)
	}
	return r
}

// neutral reports whether SelRatio is 1 for every k.
func (s *Snapshot) neutral() bool {
	return s.maxDM < 0 || s.inOrder < minSelSamples || s.totOn == 0 || s.totCross == 0
}

// prefix returns the max-charged M^on and M× summed over the coarse delays
// ≤ k/g, the last one clamped to maxDM.
func (s *Snapshot) prefix(k stream.Time) (on, cross int64) {
	kb := int(min(k/s.g, stream.Time(s.maxDM)))
	if n := len(s.cumOn); n > 0 {
		d := min(kb, n-1)
		on, cross = s.cumOn[d], s.cumCross[d]
	}
	le, _ := slices.BinarySearch(s.ooo, kb+1) // out-of-order tuples with coarse delay ≤ kb
	on += int64(le) * s.maxOn
	cross += int64(le) * s.maxCross
	return on, cross
}

// TrueResults estimates N^on_true(L), the true result size of the interval
// (Sec. IV-C), with the unbiased mean-charge for out-of-order tuples.
func (s *Snapshot) TrueResults() float64 { return s.trueOn }

// TrueCross returns the corresponding cross-join size estimate.
func (s *Snapshot) TrueCross() float64 { return s.trueCross }

// MaxChargedOn returns ΣM^on[d], the max-charged accumulation that Eq. (6)
// ratios are built from; exposed for tests.
func (s *Snapshot) MaxChargedOn() int64 { return s.totOn }
