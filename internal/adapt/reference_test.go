package adapt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hist"
	"repro/internal/profiler"
	"repro/internal/stream"
)

// RefEvaluator is the evaluator the integer one replaced, kept as the test
// reference: it snapshots one float CDF table per model input and re-adds
// Eq. 3 over all ⌈W/b⌉ basic windows for every candidate K. The search and
// the final clamp are Model's as they were, so Decide is the old decision.
type RefEvaluator struct {
	cfg     Config
	windows []stream.Time
	cum     [][]float64 // cum[i][d] = Pr[D_i ≤ d]; nil means "no delays seen"
	ksync   []stream.Time
	maxDH   stream.Time
	den     float64 // Σ_i Π_{j≠i} W_j, constant across K
}

// NewRefEvaluator snapshots the source the way the old newEvaluator did.
func NewRefEvaluator(cfg Config, windows []stream.Time, src Source) *RefEvaluator {
	n := len(windows)
	ev := &RefEvaluator{cfg: cfg.Normalize(), windows: windows, maxDH: src.MaxDelayRecent(),
		cum: make([][]float64, n), ksync: make([]stream.Time, n)}
	for i := 0; i < n; i++ {
		ev.cum[i] = refCDF(src.Delays(i))
		ev.ksync[i] = src.KSync(i)
	}
	for i := 0; i < n; i++ {
		p := 1.0
		for j := 0; j < n; j++ {
			if j != i {
				p *= float64(windows[j])
			}
		}
		ev.den += p
	}
	return ev
}

// refCumulativeProbs is the old hist.CumulativeProbs: out[d] = Pr[D ≤ d] up
// to the highest non-empty bucket, nil when empty.
func refCumulativeProbs(h *hist.Histogram) []float64 {
	if h.Total() == 0 {
		return nil
	}
	out := make([]float64, len(h.Counts()))
	var cum int64
	for d, c := range h.Counts() {
		cum += c
		out[d] = float64(cum) / float64(h.Total())
	}
	return out
}

// refCDF is the old scopeSource.CDF: one member's table unchanged, several
// members' tables averaged weighted by their counts.
func refCDF(g []*hist.Histogram) []float64 {
	if len(g) == 1 {
		return refCumulativeProbs(g[0])
	}
	var (
		cdfs    [][]float64
		weights []int64
		tot     int64
		maxLen  int
	)
	for _, h := range g {
		n := h.Total()
		if n == 0 {
			continue
		}
		c := refCumulativeProbs(h)
		cdfs = append(cdfs, c)
		weights = append(weights, n)
		tot += n
		if len(c) > maxLen {
			maxLen = len(c)
		}
	}
	if tot == 0 || maxLen == 0 {
		return nil
	}
	out := make([]float64, maxLen)
	for d := 0; d < maxLen; d++ {
		var v float64
		for j, c := range cdfs {
			p := 1.0 // past a CDF's top bucket all its mass is covered
			if d < len(c) {
				p = c[d]
			}
			v += float64(weights[j]) * p
		}
		out[d] = v / float64(tot)
	}
	return out
}

// cdf returns Pr[D_i ≤ d] in O(1).
func (ev *RefEvaluator) cdf(i, d int) float64 {
	if d < 0 {
		return 0
	}
	c := ev.cum[i]
	if len(c) == 0 || d >= len(c) {
		return 1
	}
	return c[d]
}

// Recall evaluates γ(L,K) per Eq. (5).
func (ev *RefEvaluator) Recall(k stream.Time, snap *profiler.Snapshot) float64 {
	n := len(ev.windows)
	effW := make([]float64, n)
	fdk0 := make([]float64, n)
	for i := 0; i < n; i++ {
		shift := int((k + ev.ksync[i]) / ev.cfg.G)
		fdk0[i] = ev.cdf(i, shift)
		effW[i] = ev.effectiveWindow(i, shift)
	}
	var num float64
	for i := 0; i < n; i++ {
		pn := fdk0[i]
		for j := 0; j < n; j++ {
			if j != i {
				pn *= effW[j]
			}
		}
		num += pn
	}
	if ev.den == 0 {
		return 1
	}
	gamma := num / ev.den
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

// effectiveWindow evaluates Σ_l |w^l_j| / r_j (Eq. 3) with O(1) lookups.
func (ev *RefEvaluator) effectiveWindow(j, shift int) float64 {
	w := ev.windows[j]
	b := ev.cfg.B
	if b > w {
		b = w
	}
	n := int((w + b - 1) / b)
	var sum float64
	for l := 1; l <= n; l++ {
		width := b
		if l == n {
			width = w - stream.Time(n-1)*b
		}
		d := int(stream.Time(l-1) * b / ev.cfg.G)
		sum += float64(width) * ev.cdf(j, shift+d)
	}
	return sum
}

// Decide is the old Model.decide: Alg. 3's scan over the float evaluator,
// clamped to MaxD^H.
func (ev *RefEvaluator) Decide(snap *profiler.Snapshot, gammaPrime float64) stream.Time {
	var k stream.Time
	for ev.Recall(k, snap) < gammaPrime && k <= ev.maxDH {
		k += ev.cfg.G
	}
	return min(k, ev.maxDH)
}

// seekRef is the seek the one-pass form replaced, kept verbatim but for its
// name: one forward pass that walks all n term offsets for any b and g,
// re-reading C term by term.
func (c *cursor) seekRef(in *input, g stream.Time, s int) {
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

// at is the cursor's position: (s, first, last, sum).
func (c *cursor) at() [4]int64 { return [4]int64{int64(c.s), c.first, c.last, c.sum} }

// TestSeekMatchesReference holds seek to seekRef exactly — (s, first, last,
// sum) — at b = g, where seek takes its one-pass form, and at b ≠ g: over
// empty histograms, shifts past the top bucket, n ∈ {1, 2}, the last term
// exactly at the top, and random histograms, shifts and window lengths. At
// b = g it holds the cursor moves (step, advance, retreat) to it as well.
func TestSeekMatchesReference(t *testing.T) {
	const g = 10
	rng := rand.New(rand.NewSource(28))
	check := func(counts []int64, w, b stream.Time, s int) {
		t.Helper()
		var in input
		in.init(Config{B: b, G: g}.Normalize(), w)
		got, want := cursor{counts: counts}, cursor{counts: counts}
		got.seek(&in, g, s)
		want.seekRef(&in, g, s)
		if got.at() != want.at() {
			t.Fatalf("counts %v, W = %d, b = %d (n = %d), s = %d: seek (s, first, last, sum) = %v, reference %v",
				counts, w, b, in.n, s, got.at(), want.at())
		}
	}
	random := func(n int) []int64 {
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = rng.Int63n(5)
		}
		return counts
	}
	for _, b := range []stream.Time{g, 2 * g, g / 2} {
		for _, counts := range [][]int64{nil, {}, {3}, {0, 0, 2}, {1, 2, 3, 4, 5}, random(40)} {
			top := len(counts) - 1
			// n = 1, n = 2, a last bucket below, at and past the top.
			for _, w := range []stream.Time{b, 2 * b, 2*b - 1, 3 * b, 7 * b, stream.Time(len(counts)+5) * b} {
				n := int((w + b - 1) / b)
				for _, s := range []int{0, 1, top - n + 1, top - n + 2, top, top + 1, top + 9} {
					if s >= 0 {
						check(counts, w, b, s)
					}
				}
			}
		}
		for trial := 0; trial < 20000; trial++ {
			counts := random(rng.Intn(80))
			w := 1 + stream.Time(rng.Intn(60))*b/2
			check(counts, w, b, rng.Intn(100))
		}
	}

	// The moves between shifts at b = g: step, advance and retreat land
	// where a seek of the reference lands, on and past the top bucket.
	for trial := 0; trial < 2000; trial++ {
		counts := random(rng.Intn(80))
		var in input
		in.init(Config{B: g, G: g}.Normalize(), 1+stream.Time(rng.Intn(600)))
		got := cursor{counts: counts}
		got.seek(&in, g, rng.Intn(100))
		for move := 0; move < 20; move++ {
			s := got.s + 1
			switch {
			case rng.Intn(3) == 0:
				got.step(in.n)
			case rng.Intn(2) == 0:
				s = got.s + 1 + rng.Intn(60)
				got.advance(in.n, s)
			case got.s > 0:
				s = rng.Intn(got.s)
				got.retreat(in.n, s)
			default:
				continue
			}
			want := cursor{counts: counts}
			want.seekRef(&in, g, s)
			if got.at() != want.at() {
				t.Fatalf("counts %v, n = %d: moved to %v, reference seek to %d reads %v", counts, in.n, got.at(), s, want.at())
			}
		}
	}
}

// searchPlain is the scan searchLinear replaced, kept verbatim but for the
// counter it bumps: Alg. 3 as printed, scanning k* = 0, g, 2g, … until the
// model meets the instant requirement or the maximum observed delay is
// exceeded.
func (m *Model) searchPlain(ev *evaluator, snap *profiler.Snapshot, gammaPrime float64, maxDH stream.Time, iterations *int64) stream.Time {
	var k stream.Time
	for {
		*iterations++
		if ev.recall(k, snap) >= gammaPrime || k > maxDH {
			return k
		}
		k += m.cfg.G
	}
}

// Alg3 is the decision the plain scan makes on the model's current
// statistics, clamped to MaxD^H as searchLinear's result is, and the number of
// candidates it evaluated. The model's own instrumentation is left alone.
func (m *Model) Alg3(snap *profiler.Snapshot, gammaPrime float64) (k stream.Time, iterations int64) {
	maxDH := m.stats.MaxDelayRecent()
	k = m.searchPlain(m.newEvaluator(), snap, gammaPrime, maxDH, &iterations)
	return min(k, maxDH), iterations
}

// BuildStats is buildStats for the package's external tests.
var BuildStats = buildStats

// NewFakeSource returns a Source over hand-built histograms: input i merges
// delays[i] and has K^sync ksync[i]. MaxD^H is maxDH when positive, else the
// largest delay the histograms hold.
func NewFakeSource(delays [][]*hist.Histogram, ksync []stream.Time, maxDH stream.Time) Source {
	return &fakeSource{delays: delays, ksync: ksync, maxDH: maxDH}
}

// fakeSource is a Source over hand-built histograms.
type fakeSource struct {
	delays [][]*hist.Histogram
	ksync  []stream.Time
	maxDH  stream.Time // MaxD^H when positive
}

func (s *fakeSource) Delays(i int) []*hist.Histogram { return s.delays[i] }
func (s *fakeSource) KSync(i int) stream.Time        { return s.ksync[i] }
func (s *fakeSource) MaxDelayRecent() stream.Time {
	if s.maxDH > 0 {
		return s.maxDH
	}
	var maxD stream.Time
	for _, g := range s.delays {
		for _, h := range g {
			maxD = max(maxD, h.MaxDelay())
		}
	}
	return maxD
}

// randomSource draws 1–4 model inputs, each a merged group of 1–3 member
// histograms (some left empty when withEmpty), with random K^sync.
func randomSource(rng *rand.Rand, g stream.Time, withEmpty bool) *fakeSource {
	src := &fakeSource{}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		var group []*hist.Histogram
		for j, k := 0, 1+rng.Intn(3); j < k; j++ {
			h := hist.New(g)
			if !withEmpty || rng.Intn(3) > 0 {
				spread := stream.Time(1 + rng.Intn(3000))
				for a, total := 0, 1+rng.Intn(4000); a < total; a++ {
					if rng.Intn(3) > 0 {
						h.Add(0)
					} else {
						h.Add(stream.Time(rng.Int63n(int64(spread))))
					}
				}
			}
			group = append(group, h)
		}
		src.delays = append(src.delays, group)
		src.ksync = append(src.ksync, stream.Time(rng.Intn(400)))
	}
	return src
}

// TestEvaluatorMatchesReference is the random differential: over random
// histograms, merged groups, window/basic-window/granularity ratios and
// K^sync, the integer evaluator agrees with the float reference to 1e-12 at
// every candidate of a scan (step) and at random probes (seek).
func TestEvaluatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const g = 10
	for trial := 0; trial < 120; trial++ {
		src := randomSource(rng, g, trial%2 == 1)
		b := []stream.Time{g, 2 * g, 5 * g / 2, g / 2}[rng.Intn(4)]
		windows := make([]stream.Time, len(src.delays))
		for i := range windows {
			windows[i] = []stream.Time{b, 3*b + 7, 500 * b}[rng.Intn(3)]
		}
		cfg := Config{B: b, G: g, Strategy: EqSel}
		m := NewModel(cfg, windows, src, nil)
		ref := NewRefEvaluator(cfg, windows, src)
		ev := m.newEvaluator()
		check := func(k stream.Time) {
			t.Helper()
			if got, want := ev.recall(k, nil), ref.Recall(k, nil); math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d (b=%d, W=%v, ksync=%v) K=%d: recall %v, reference %v (Δ %g)",
					trial, b, windows, src.ksync, k, got, want, got-want)
			}
		}
		maxDH := src.MaxDelayRecent()
		for k := stream.Time(0); k <= maxDH+g; k += g {
			check(k)
		}
		for i := 0; i < 20; i++ {
			check(stream.Time(rng.Int63n(int64(maxDH+2*g))) / g * g)
		}
	}
}

// zipfStats builds x3-shaped delay histograms: m streams whose delays are
// Zipf-distributed 100 ms ranks over [0, 20 s], n delays each.
func zipfStats(m, n int, seed int64) *fakeSource {
	rng := rand.New(rand.NewSource(seed))
	src := &fakeSource{ksync: make([]stream.Time, m)}
	for i := 0; i < m; i++ {
		z := rand.NewZipf(rng, 1.5+0.5*float64(i), 1, 200)
		h := hist.New(DefaultG)
		for a := 0; a < n; a++ {
			h.Add(stream.Time(z.Uint64()) * 100)
		}
		src.delays = append(src.delays, []*hist.Histogram{h})
		src.ksync[i] = stream.Time(30 * i)
	}
	return src
}

// unskippable builds a NonEqSel profile on which no block of the bounded
// scan can be skipped and no candidate meets Γ′ = 0.99: three streams whose
// delays are 99 % spread over [0, 100 ms) and 1 % at 10 s, MaxD^H = 3 s, so
// γ = γ_E ≤ 0.99³ for every candidate; and a snapshot with one in-order
// tuple of n× = 2, n^on = 1 per coarse delay up to MaxD^H, so SelRatio is 1
// exactly while the block bound, (hi+1)/(lo+1) in coarse delays, lifts every
// envelope past Γ′.
func unskippable() (Source, *profiler.Snapshot) {
	const maxDH = 3 * stream.Second
	var delays [][]*hist.Histogram
	for i := 0; i < 3; i++ {
		h := hist.New(DefaultG)
		for a := 0; a < 8192; a++ {
			if a%100 == 0 {
				h.Add(10 * stream.Second)
			} else {
				h.Add(stream.Time(a % 100))
			}
		}
		delays = append(delays, []*hist.Histogram{h})
	}
	prof := profiler.New(DefaultG)
	for d := stream.Time(0); d <= maxDH; d += DefaultG {
		prof.RecordInOrder(d, 2, 1)
	}
	return NewFakeSource(delays, make([]stream.Time, 3), maxDH), prof.Snapshot()
}

var sinkK stream.Time

// BenchmarkDecide measures one Buffer-Size Manager decision (W = 5 s,
// b = g = 10 ms, Γ′ = 0.99) of the bounded scan (linear) and the plain scan
// it replaced (alg3) on two profiles: x3, x3-shaped EqSel statistics, where
// every block before k*'s is skipped; and worst, unskippable's, where the
// bounded scan pays every envelope on top of every candidate the plain scan
// evaluates.
func BenchmarkDecide(b *testing.B) {
	w := 5 * stream.Second
	worst, worstSnap := unskippable()
	profiles := []struct {
		name     string
		src      Source
		snap     *profiler.Snapshot
		strategy Strategy
	}{
		{"x3", zipfStats(3, 8192, 1), nil, EqSel},
		{"worst", worst, worstSnap, NonEqSel},
	}
	for _, p := range profiles {
		for _, search := range []string{"linear", "alg3"} {
			b.Run(p.name+"/"+search, func(b *testing.B) {
				cfg := Config{Gamma: 0.99, NoCalibration: true, Strategy: p.strategy}
				m := NewModel(cfg, []stream.Time{w, w, w}, p.src, nil)
				var iters int64
				b.ReportAllocs()
				for b.Loop() {
					if search == "alg3" {
						var n int64
						sinkK, n = m.Alg3(p.snap, cfg.Gamma)
						iters += n
					} else {
						sinkK = m.Decide(0, p.snap)
					}
				}
				if search != "alg3" {
					_, iters, _ = m.AdaptStats()
				}
				b.ReportMetric(float64(iters)/float64(b.N), "evals/op")
			})
		}
	}
}
