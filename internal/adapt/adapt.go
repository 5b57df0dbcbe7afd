// Package adapt implements the Buffer-Size Manager of Fig. 2: at the end of
// every adaptation interval L it chooses the common K-slack buffer size k*
// for the next interval (the Same-K policy of Theorem 1 means one value
// serves all streams).
//
// The model-based policy follows Sec. IV: it estimates the recall γ(L,K)
// that buffer size K would produce (Eq. 3–5), optionally scaled by the
// learned delay–productivity selectivity ratio (Eq. 6, the NonEqSel
// strategy), derives the instant recall requirement Γ′ from the
// user-specified Γ via the Result-Size Monitor (Eq. 7), and searches for the
// minimum k* with γ(L,k*) ≥ Γ′ at granularity g (Alg. 3).
//
// The No-K-slack and Max-K-slack baselines of Sec. VI are provided as
// alternative policies.
package adapt

import (
	"math"
	"time"

	"repro/internal/hist"
	"repro/internal/profiler"
	"repro/internal/stream"
)

// Source supplies the per-input delay statistics the model-based policy
// reads: the delay histograms and Synchronizer buffer estimate of each model
// input, plus the recent maximum delay bounding the Alg. 3 search.
// stats.Manager implements it directly (inputs = raw streams); the feedback
// runtime also implements it per decision scope, where an input may be a
// *group* of raw streams (e.g. the left side of a binary tree stage) whose
// distributions are merged. The seam keeps this package free of any
// dependency on how statistics are collected.
type Source interface {
	// Delays returns the live delay histograms (granularity g) of model
	// input i. The input's delay distribution is their bucket-wise sum: the
	// distribution of a tuple drawn uniformly from the members' histories. A
	// sum without recorded delays means "no delays observed" (all mass at
	// zero). The model reads the counts in place during a decision and must
	// not be raced by an Add or Remove.
	Delays(i int) []*hist.Histogram
	// KSync estimates the Synchronizer's implicit buffer for input i.
	KSync(i int) stream.Time
	// MaxDelayRecent returns MaxD^H over the inputs' recent histories.
	MaxDelayRecent() stream.Time
}

// ResultWindow is the Result-Size Monitor seam of the Γ′ derivation (Eq. 7):
// produced results and summed true-size estimates within the last P−L time
// units. monitor.Monitor implements it.
type ResultWindow interface {
	Produced() int64
	TrueEstimate() float64
}

// DelayTracker is the all-time maximum-delay seam of the Max-K-slack
// baseline. stats.Manager implements it.
type DelayTracker interface {
	MaxDelayAllTime() stream.Time
}

// Strategy selects how the selectivity under incomplete disorder handling is
// modeled (Sec. IV-B).
type Strategy int

const (
	// NonEqSel learns DPcorr from the join output and uses Eq. (6).
	NonEqSel Strategy = iota
	// EqSel assumes sel^on(K) = sel^on, i.e. a selectivity ratio of 1.
	EqSel
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == EqSel {
		return "EqSel"
	}
	return "NonEqSel"
}

// Search selects the Alg. 3 algorithm used to find the minimum k* with
// γ(L,k*) ≥ Γ′.
type Search int

const (
	// LinearSearch returns the k* of the paper's trial-and-error scan
	// k* = 0, g, 2g, …, skipping blocks of candidates an upper bound rules
	// out (Model.searchLinear).
	LinearSearch Search = iota
	// BinarySearch probes O(log(MaxD^H/g)) candidates instead, exploiting
	// the monotonicity of γ(L,K) in K. The paper leaves "other algorithms
	// for searching for k*" as future work; this is the natural one. Under
	// NonEqSel the learned selectivity ratio can make the target function
	// locally non-monotone, in which case binary search still returns a
	// feasible k* but not necessarily the minimal one.
	BinarySearch
)

// String implements fmt.Stringer.
func (s Search) String() string {
	if s == BinarySearch {
		return "binary"
	}
	return "linear"
}

// Config carries the user requirements and system parameters of the
// framework (Table I).
type Config struct {
	Gamma float64     // Γ: required minimum recall γ(P)
	P     stream.Time // result-quality measurement period
	L     stream.Time // adaptation interval (L ≤ P)
	B     stream.Time // basic window size b
	G     stream.Time // K-search granularity g

	Strategy Strategy
	Search   Search

	// NoCalibration disables the Γ′ derivation of Eq. (7) and uses the raw
	// Γ as the instant requirement (ablation knob; the paper always
	// calibrates).
	NoCalibration bool
}

// Default system parameters from Sec. VI.
const (
	DefaultB = 10 * stream.Millisecond
	DefaultG = 10 * stream.Millisecond
)

// Normalize fills unset parameters with the paper's defaults and clamps
// inconsistent ones.
func (c Config) Normalize() Config {
	if c.P <= 0 {
		c.P = stream.Minute
	}
	if c.L <= 0 {
		c.L = stream.Second
	}
	if c.L > c.P {
		c.L = c.P
	}
	if c.B <= 0 {
		c.B = DefaultB
	}
	if c.G <= 0 {
		c.G = DefaultG
	}
	if c.Gamma < 0 {
		c.Gamma = 0
	}
	if c.Gamma > 1 {
		c.Gamma = 1
	}
	return c
}

// Policy decides the K-slack buffer size applied during the next adaptation
// interval. Decide is called once per interval with the interval's
// productivity snapshot.
type Policy interface {
	Name() string
	Decide(now stream.Time, snap *profiler.Snapshot) stream.Time
}

// NoK is the No-K-slack baseline: K_i = 0 for all streams, leaving only the
// Synchronizer to handle disorder.
type NoK struct{}

// Name implements Policy.
func (NoK) Name() string { return "No-K-slack" }

// Decide implements Policy.
func (NoK) Decide(stream.Time, *profiler.Snapshot) stream.Time { return 0 }

// MaxK is the Max-K-slack baseline [12]: K equals the maximum delay among
// all so-far-observed tuples from all streams.
type MaxK struct {
	Stats DelayTracker
}

// Name implements Policy.
func (MaxK) Name() string { return "Max-K-slack" }

// Decide implements Policy.
func (p MaxK) Decide(stream.Time, *profiler.Snapshot) stream.Time {
	return p.Stats.MaxDelayAllTime()
}

// Static applies a fixed buffer size; useful for tests and ablations.
type Static struct{ K stream.Time }

// Name implements Policy.
func (Static) Name() string { return "Static-K" }

// Decide implements Policy.
func (p Static) Decide(stream.Time, *profiler.Snapshot) stream.Time { return p.K }

// Model is the quality-driven, model-based policy of Alg. 3.
type Model struct {
	cfg   Config
	stats Source
	mon   ResultWindow
	ev    evaluator // refilled at every decision

	// instrumentation for Fig. 11 and the ablation benches
	steps      int64
	iterations int64
	adaptTime  time.Duration
	lastGammaP float64
}

// NewModel creates the model-based policy. windows are the W_i of the model
// inputs (one per Source input).
func NewModel(cfg Config, windows []stream.Time, st Source, mon ResultWindow) *Model {
	m := &Model{cfg: cfg.Normalize(), stats: st, mon: mon}
	m.ev.init(m.cfg, windows, st)
	return m
}

// Name implements Policy.
func (m *Model) Name() string { return "Model(" + m.cfg.Strategy.String() + ")" }

// Decide implements Policy: Alg. 3.
func (m *Model) Decide(now stream.Time, snap *profiler.Snapshot) stream.Time {
	return m.decide(now, snap, m.instantRequirement(snap))
}

// DecideShared is Decide with the instant requirement Γ′ supplied by the
// caller instead of derived from this model's own monitor seam. The
// feedback runtime's per-stage mode uses it: the requirement is derived
// once, at the root decision scope (whose monitor window sees the final
// results), and every stage then searches its own k* against that shared
// target. Deriving Γ′ per stage would divide the root-produced result count
// by stage-local true-size estimates — incoherent for middle stages, whose
// intermediate result sizes dwarf the final output's.
func (m *Model) DecideShared(now stream.Time, snap *profiler.Snapshot, gammaPrime float64) stream.Time {
	return m.decide(now, snap, gammaPrime)
}

func (m *Model) decide(now stream.Time, snap *profiler.Snapshot, gammaPrime float64) stream.Time {
	start := time.Now()
	maxDH := m.stats.MaxDelayRecent()
	m.lastGammaP = gammaPrime
	ev := m.newEvaluator()
	var k stream.Time
	if m.cfg.Search == BinarySearch {
		k = m.searchBinary(ev, snap, gammaPrime, maxDH)
	} else {
		k = m.searchLinear(ev, snap, gammaPrime, maxDH)
	}
	if k > maxDH {
		k = maxDH
	}
	m.steps++
	m.adaptTime += time.Since(start)
	return k
}

// block is the number of Alg. 3 candidates one envelope check covers.
const block = 16

// searchLinear returns Alg. 3's k*: the first of k = 0, g, 2g, … ≤ MaxD^H
// with γ(L,k) ≥ Γ′, or MaxD^H when none is — what the printed scan returns
// once decide clamps it. It walks the candidates in blocks [lo, hi] and
// evaluates one envelope per block, U = γ_E(hi) · SelRatioBound(lo, hi),
// where γ_E is Eq. 5 before the Eq. 6 ratio. γ_E never decreases in k (see
// evaluator), so no candidate of a block with U < Γ′ can meet Γ′ and the
// block is skipped; otherwise it is rescanned candidate by candidate from
// the cursors saved at its start. A NaN envelope never skips.
//
// An envelope that does not skip a block without k* is wasted work. The
// first waste costs nothing more; after the next ones the scan walks 1, 3,
// 7, … blocks candidate by candidate before checking again, so where no
// block can be skipped the envelopes cost O(log) on top of the plain scan.
func (m *Model) searchLinear(ev *evaluator, snap *profiler.Snapshot, gammaPrime float64, maxDH stream.Time) stream.Time {
	g := m.cfg.G
	ratio := m.cfg.Strategy == NonEqSel && snap != nil
	plain, backoff := 0, 0 // blocks to walk before the next envelope, its next value
	for lo := stream.Time(0); lo <= maxDH; {
		hi := min(lo+(block-1)*g, maxDH/g*g)
		if plain > 0 {
			plain--
		} else if hi > lo {
			m.iterations++
			ev.mark = append(ev.mark[:0], ev.cur...)
			u := ev.eq5(hi)
			if ratio {
				u *= snap.SelRatioBound(lo, hi)
			}
			if u < gammaPrime {
				lo = hi + g
				continue
			}
			copy(ev.cur, ev.mark)
			plain, backoff = backoff, 2*backoff+1
		}
		for ; lo <= hi; lo += g {
			m.iterations++
			if ev.recall(lo, snap) >= gammaPrime {
				return lo
			}
		}
	}
	return maxDH
}

// searchBinary finds the smallest multiple of g meeting the requirement
// with O(log) model evaluations.
func (m *Model) searchBinary(ev *evaluator, snap *profiler.Snapshot, gammaPrime float64, maxDH stream.Time) stream.Time {
	m.iterations++
	if ev.recall(0, snap) >= gammaPrime {
		return 0
	}
	m.iterations++
	if ev.recall(maxDH, snap) < gammaPrime {
		return maxDH
	}
	lo, hi := stream.Time(0), (maxDH+m.cfg.G-1)/m.cfg.G // in units of g; recall(hi·g) ≥ Γ′
	for lo+1 < hi {
		mid := (lo + hi) / 2
		m.iterations++
		if ev.recall(mid*m.cfg.G, snap) >= gammaPrime {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi * m.cfg.G
}

// evaluator evaluates γ(L,K) (Eq. 3–5) for the candidates of one Alg. 3
// search, in exact integer arithmetic over the live delay histograms.
//
// Every F_i(d) is C_i(d)/T_i, a cumulative count over the total, so Eq. 3
//
//	effW_i(s) = Σ_{l=1..n} |w^l_i| · F_i(s + ⌊(l−1)·b/g⌋),  s = (K + K^sync_i)/g, n = ⌈W_i/b⌉
//
// is an integer — b·Σ_{l<n} C_i(·) + |w^n_i|·C_i(·) — divided once by T_i.
// A cursor keeps C(s), the last term's C and the Σ per member histogram;
// when b = g the terms are consecutive buckets and the next candidate,
// s+1, is one bucket in and one out. No table is built and nothing is
// copied: one Model owns one evaluator and refills it per decision.
//
// Eq. 5 before the Eq. 6 ratio, γ_E(K), never decreases in K: the cursors'
// counts only grow with s, and every later step is a conversion, division,
// product or sum of non-negative floats in a fixed order, each of which
// rounding to nearest keeps in order. searchLinear's envelope rests on it.
type evaluator struct {
	cfg  Config
	den  float64  // Σ_i Π_{j≠i} W_j, constant across K
	in   []input  // one per model input
	cur  []cursor // the inputs' member cursors, input after input
	mark []cursor // cur as saved at the start of searchLinear's block
	effW []float64
	fdk0 []float64
}

// input holds what Eq. 3 needs of one model input: constants of (W_i, b, g)
// fixed at construction, and the per-decision statistics.
type input struct {
	w, b, last stream.Time // W_i, min(b, W_i), width of the n-th basic window
	n          int         // ⌈W_i/b⌉ basic windows
	unit       bool        // term offsets are 0,1,…,n−1 buckets: step applies

	ksync  stream.Time
	total  int64 // T_i over the members
	lo, hi int   // cur[lo:hi] are this input's cursors
}

// cursor is the Eq. 3 state of one member histogram at shift s.
type cursor struct {
	counts []int64 // the histogram's own counts; beyond them C = total
	s      int
	first  int64 // C(s)
	last   int64 // C(s + ⌊(n−1)·b/g⌋), the n-th term
	sum    int64 // Σ_{l=1..n−1} C(s + ⌊(l−1)·b/g⌋)
}

func (ev *evaluator) init(cfg Config, windows []stream.Time, st Source) {
	n := len(windows)
	ev.cfg = cfg
	ev.in = make([]input, n)
	ev.effW = make([]float64, n)
	ev.fdk0 = make([]float64, n)
	members := 0
	for i := range windows {
		members += len(st.Delays(i))
	}
	ev.mark = make([]cursor, 0, members) // decisions stay allocation-free from the first
	for i, w := range windows {
		b := max(min(cfg.B, w), 1) // W_i ≤ 0 is the join operator's panic to raise, not a division's
		in := &ev.in[i]
		in.w, in.b = w, b
		in.n = int((w + b - 1) / b)
		in.last = w - stream.Time(in.n-1)*b
		in.unit = b == cfg.G || in.n == 1
		p := 1.0
		for j := range windows {
			if j != i {
				p *= float64(windows[j])
			}
		}
		ev.den += p
	}
}

// newEvaluator refills the model's evaluator from the statistics source and
// positions every cursor at K = 0.
func (m *Model) newEvaluator() *evaluator {
	ev := &m.ev
	ev.cur = ev.cur[:0]
	for i := range ev.in {
		in := &ev.in[i]
		in.ksync = m.stats.KSync(i)
		in.total = 0
		in.lo = len(ev.cur)
		for _, h := range m.stats.Delays(i) {
			in.total += h.Total()
			ev.cur = append(ev.cur, cursor{counts: h.Counts()})
		}
		in.hi = len(ev.cur)
		for c := in.lo; c < in.hi; c++ {
			ev.cur[c].seek(in, ev.cfg.G, int(in.ksync/ev.cfg.G))
		}
	}
	return ev
}

// seek positions the cursor at shift s in one forward pass over the counts,
// for any b and g.
func (c *cursor) seek(in *input, g stream.Time, s int) {
	x, cum := -1, int64(0) // cum = C(x)
	top := len(c.counts) - 1
	c.s, c.sum = s, 0
	for l := 0; l < in.n; l++ {
		d := s + l
		if !in.unit {
			d = s + int(stream.Time(l)*in.b/g)
		}
		for d = min(d, top); x < d; {
			x++
			cum += c.counts[x]
		}
		if l == 0 {
			c.first = cum
		}
		if l < in.n-1 {
			c.sum += cum
		} else {
			c.last = cum
		}
	}
}

// step advances the cursor from s to s+1 when the n terms sit at
// consecutive buckets s … s+n−1.
func (c *cursor) step(n int) {
	c.sum += c.last - c.first
	c.s++
	if c.s < len(c.counts) {
		c.first += c.counts[c.s]
	}
	if d := c.s + n - 1; d < len(c.counts) {
		c.last += c.counts[d]
	}
}

// advance is step repeated up to shift s, with the cursor held in locals:
// the bounded scan moves cursors a block of candidates at a time.
func (c *cursor) advance(n, s int) {
	counts, first, last, sum := c.counts, c.first, c.last, c.sum
	for x := c.s + 1; x <= s; x++ {
		sum += last - first
		if x < len(counts) {
			first += counts[x]
		}
		if d := x + n - 1; d < len(counts) {
			last += counts[d]
		}
	}
	c.s, c.first, c.last, c.sum = s, first, last, sum
}

// eq5 evaluates γ_E(K), Eq. (5) before the selectivity ratio and the clamp,
// positioning every cursor at K on the way: a forward move advances when the
// terms are consecutive buckets, any other move seeks.
func (ev *evaluator) eq5(k stream.Time) float64 {
	for i := range ev.in {
		in := &ev.in[i]
		s := int((k + in.ksync) / ev.cfg.G)
		var first, last, sum int64
		for c := in.lo; c < in.hi; c++ {
			cur := &ev.cur[c]
			switch {
			case s == cur.s:
			case in.unit && s == cur.s+1:
				cur.step(in.n)
			case in.unit && s > cur.s:
				cur.advance(in.n, s)
			default:
				cur.seek(in, ev.cfg.G, s)
			}
			first += cur.first
			last += cur.last
			sum += cur.sum
		}
		ev.fdk0[i], ev.effW[i] = 1, float64(in.w)
		if in.total > 0 {
			t := float64(in.total)
			ev.fdk0[i] = float64(first) / t
			ev.effW[i] = float64(int64(in.b)*sum+int64(in.last)*last) / t
		}
	}
	var num float64
	for i, pn := range ev.fdk0 {
		for j, w := range ev.effW {
			if j != i {
				pn *= w
			}
		}
		num += pn
	}
	return num / ev.den
}

// recall evaluates γ(L,K) per Eq. (5).
func (ev *evaluator) recall(k stream.Time, snap *profiler.Snapshot) float64 {
	if ev.den == 0 {
		return 1
	}
	gamma := ev.eq5(k)
	if ev.cfg.Strategy == NonEqSel && snap != nil {
		gamma *= snap.SelRatio(k)
	}
	if gamma > 1 {
		gamma = 1
	}
	if math.IsNaN(gamma) || gamma < 0 {
		gamma = 0
	}
	return gamma
}

// instantRequirement derives Γ′ per Eq. (7) and applies it clamped to
// [Γ, 1]: calibration tightens the requirement when the recent past fell
// behind, but never relaxes it below the user's Γ. The paper prints the
// final requirement as "max{Γ′, 1}", which is degenerate as written (always
// 1 ⇒ Max-K-slack); we read it as max{Γ′, Γ}. Allowing relaxation below Γ
// (min{Γ′,1}) makes the controller ride the Γ threshold from below and
// destroys Φ(Γ) — see DESIGN.md §4. When calibration is disabled or no
// statistics exist yet, the raw Γ is used.
func (m *Model) instantRequirement(snap *profiler.Snapshot) float64 {
	if m.cfg.NoCalibration || snap == nil {
		return m.cfg.Gamma
	}
	trueL := snap.TrueResults()
	if trueL <= 0 {
		return m.cfg.Gamma
	}
	prodPL := float64(m.mon.Produced())
	truePL := m.mon.TrueEstimate()
	gp := (m.cfg.Gamma*(truePL+trueL) - prodPL) / trueL
	if gp < m.cfg.Gamma {
		return m.cfg.Gamma
	}
	if gp > 1 {
		return 1
	}
	return gp
}

// EstimateRecall computes γ(L,K) per Eq. (5) from the current statistics.
func (m *Model) EstimateRecall(k stream.Time, snap *profiler.Snapshot) float64 {
	return m.newEvaluator().recall(k, snap)
}

// InstantRequirement exposes Γ′ computation for tests.
func (m *Model) InstantRequirement(snap *profiler.Snapshot) float64 {
	return m.instantRequirement(snap)
}

// AdaptStats reports instrumentation: number of adaptation steps, total
// model iterations across all searches, and cumulative wall-clock time spent
// inside Decide. An iteration is one evaluation of Eq. 5: under
// LinearSearch an envelope check of a block or an exact evaluation of one
// candidate, under BinarySearch one probe.
func (m *Model) AdaptStats() (steps, iterations int64, total time.Duration) {
	return m.steps, m.iterations, m.adaptTime
}

// LastGammaPrime returns the most recently derived instant requirement.
func (m *Model) LastGammaPrime() float64 { return m.lastGammaP }
