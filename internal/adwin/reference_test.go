package adwin

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/stream"
)

// refBucket aggregates 2^row consecutive elements.
type refBucket struct {
	sum   float64
	sumSq float64
	size  float64
}

// refRow is one capacity class of the exponential histogram: a fixed-size ring
// of at most maxBucketsPerRow+1 buckets (the +1 absorbs the transient
// overflow before a merge). A ring rather than a slice keeps insertion
// allocation-free: the old slice layout advanced its start on every merge,
// bleeding capacity and reallocating about once per element.
type refRow struct {
	buf  [maxBucketsPerRow + 1]refBucket
	head int
	n    int
}

// push appends a bucket at the newest end.
func (r *refRow) push(b refBucket) {
	r.buf[(r.head+r.n)%len(r.buf)] = b
	r.n++
}

// pop removes and returns the oldest bucket.
func (r *refRow) pop() refBucket {
	b := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return b
}

// at returns the i-th oldest bucket.
func (r *refRow) at(i int) refBucket {
	return r.buf[(r.head+i)%len(r.buf)]
}

// refWindow is the Window this package had before the cut scan got its
// division-free filter and the rows their masked rings: every boundary pays
// the full Bernstein test (two logarithms per scan, seven divisions and a
// square root per boundary). It is kept verbatim as the reference the
// differential test holds Window against; only the names changed, plus the
// visited counter the filter-rate test reads.
type refWindow struct {
	delta     float64
	rows      []refRow // rows[i] holds buckets of capacity 2^i
	total     float64
	sum       float64
	sumSq     float64
	minLength int
	sinceCut  int
	checkEach int

	visited int64 // boundaries that reached cutViolated
}

func newRef(delta float64) *refWindow {
	if delta <= 0 || delta >= 1 {
		delta = 0.002
	}
	return &refWindow{
		delta:     delta,
		minLength: 16,
		checkEach: 8,
	}
}

// Add appends one element to the window head and returns true if the window
// detected a distribution change and dropped its stale tail.
func (w *refWindow) Add(x float64) bool {
	w.insert(x)
	w.sinceCut++
	if w.sinceCut < w.checkEach || w.total < float64(w.minLength) {
		return false
	}
	w.sinceCut = 0
	return w.shrink()
}

// Len returns the current window length in elements.
func (w *refWindow) Len() int { return int(w.total) }

// Mean returns the mean of the elements currently in the window.
func (w *refWindow) Mean() float64 {
	if w.total == 0 {
		return 0
	}
	return w.sum / w.total
}

// insert adds a capacity-1 bucket and compresses rows that overflow.
func (w *refWindow) insert(x float64) {
	if len(w.rows) == 0 {
		w.rows = append(w.rows, refRow{})
	}
	w.rows[0].push(refBucket{sum: x, sumSq: x * x, size: 1})
	w.total++
	w.sum += x
	w.sumSq += x * x
	for i := 0; i < len(w.rows); i++ {
		if w.rows[i].n <= maxBucketsPerRow {
			break
		}
		// Merge the two oldest buckets of this row into one bucket of the
		// next row.
		b0 := w.rows[i].pop()
		b1 := w.rows[i].pop()
		if i+1 == len(w.rows) {
			w.rows = append(w.rows, refRow{})
		}
		w.rows[i+1].push(refBucket{
			sum:   b0.sum + b1.sum,
			sumSq: b0.sumSq + b1.sumSq,
			size:  b0.size + b1.size,
		})
	}
}

// shrink evaluates the ADWIN cut condition at every bucket boundary, oldest
// first, dropping tail buckets while any split shows a significant difference
// in means. Returns true if anything was dropped.
func (w *refWindow) shrink() bool {
	dropped := false
	for {
		if !w.dropOnce() {
			return dropped
		}
		dropped = true
	}
}

// dropOnce scans the histogram once and drops the single oldest bucket if
// some split point violates the cut condition.
func (w *refWindow) dropOnce() bool {
	if w.total < float64(w.minLength) {
		return false
	}
	// The significance threshold's variance and confidence terms depend only
	// on whole-window state, so hoist them out of the boundary scan.
	v := w.variance()
	dd := math.Log(2 * math.Log(math.Max(w.total, math.E)) / w.delta)
	// Walk from the oldest bucket towards the newest, maintaining the tail
	// aggregate (n0, s0); head aggregate is the complement.
	n0, s0 := 0.0, 0.0
	cut := false
	// Oldest buckets live in the highest row, at the front of that row.
	for i := len(w.rows) - 1; i >= 0 && !cut; i-- {
		for j := 0; j < w.rows[i].n; j++ {
			b := w.rows[i].at(j)
			n0 += b.size
			s0 += b.sum
			n1 := w.total - n0
			if n0 < 1 || n1 < 1 {
				continue
			}
			w.visited++
			if w.cutViolated(n0, s0, n1, w.sum-s0, v, dd) {
				cut = true
				break
			}
		}
	}
	if !cut {
		return false
	}
	w.dropOldestBucket()
	return true
}

// cutViolated implements the variance-based (Bernstein) ADWIN significance
// test, which — unlike the plain Hoeffding form — works for values of
// arbitrary scale such as millisecond delays: with harmonic sample size m,
// window variance v and confidence δ′ = δ / ln(n),
//
//	ε = sqrt((2/m)·v·ln(2/δ′)) + (2/(3m))·ln(2/δ′).
//
// v and dd are the whole-window variance and ln(2/δ′) term, precomputed by
// the caller once per scan.
func (w *refWindow) cutViolated(n0, s0, n1, s1, v, dd float64) bool {
	mean0 := s0 / n0
	mean1 := s1 / n1
	m := 1 / (1/n0 + 1/n1)
	eps := math.Sqrt(2/m*v*dd) + 2/(3*m)*dd
	return math.Abs(mean0-mean1) > eps
}

// variance returns the empirical variance of the whole window.
func (w *refWindow) variance() float64 {
	if w.total < 2 {
		return 0
	}
	mean := w.sum / w.total
	v := w.sumSq/w.total - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

// State captures the window's state.
func (w *refWindow) State() State {
	st := State{Total: w.total, Sum: w.sum, SumSq: w.sumSq, SinceCut: w.sinceCut,
		Rows: make([][]BucketState, len(w.rows))}
	for i := range w.rows {
		r := &w.rows[i]
		st.Rows[i] = make([]BucketState, r.n)
		for j := 0; j < r.n; j++ {
			b := r.at(j)
			st.Rows[i][j] = BucketState{Sum: b.sum, SumSq: b.sumSq, Size: b.size}
		}
	}
	return st
}

// Restore loads a captured state into a freshly constructed window (same
// delta).
func (w *refWindow) Restore(st State) {
	w.total = st.Total
	w.sum = st.Sum
	w.sumSq = st.SumSq
	w.sinceCut = st.SinceCut
	w.rows = make([]refRow, len(st.Rows))
	for i, bs := range st.Rows {
		for _, b := range bs {
			w.rows[i].push(refBucket{sum: b.Sum, sumSq: b.SumSq, size: b.Size})
		}
	}
}

// dropOldestBucket removes the single oldest bucket from the histogram.
func (w *refWindow) dropOldestBucket() {
	for i := len(w.rows) - 1; i >= 0; i-- {
		r := &w.rows[i]
		if r.n == 0 {
			continue
		}
		b := r.pop()
		w.total -= b.size
		w.sum -= b.sum
		w.sumSq -= b.sumSq
		// Trim empty high rows so future scans stay short.
		for len(w.rows) > 1 && w.rows[len(w.rows)-1].n == 0 {
			w.rows = w.rows[:len(w.rows)-1]
		}
		return
	}
}

// feedClasses are the value streams TestMatchesReference runs both windows
// over. Each returns element i of a length-n stream; rng is the seed's own.
var feedClasses = []struct {
	name string
	gen  func(rng *rand.Rand, n int) func(i int) float64
}{
	{"stationary", func(rng *rand.Rand, n int) func(int) float64 {
		integer := rng.Intn(2) == 0
		return func(int) float64 {
			x := 200 + 50*rng.NormFloat64()
			if integer {
				x = math.Round(x)
			}
			return x
		}
	}},
	{"level-shift", func(rng *rand.Rand, n int) func(int) float64 {
		level, next := 0.0, 200+rng.Intn(n/2)
		return func(i int) float64 {
			if i == next {
				level = float64(rng.Intn(2000))
				next += 100 + rng.Intn(n/2)
			}
			return level + float64(rng.Intn(100))
		}
	}},
	{"slow-drift", func(rng *rand.Rand, n int) func(int) float64 {
		slope := rng.Float64() * 0.2
		return func(i int) float64 {
			return math.Floor(float64(i)*slope + 40*rng.Float64())
		}
	}},
	{"bursts", func(rng *rand.Rand, n int) func(int) float64 {
		left := 0
		return func(int) float64 {
			if left == 0 && rng.Intn(300) == 0 {
				left = 20 + rng.Intn(200)
			}
			if left > 0 {
				left--
				return float64(rng.Intn(20000))
			}
			return float64(rng.Intn(3) * 10)
		}
	}},
	{"all-zero", func(*rand.Rand, int) func(int) float64 {
		return func(int) float64 { return 0 }
	}},
	{"constant", func(rng *rand.Rand, _ int) func(int) float64 {
		c := float64(1 + rng.Intn(5000))
		return func(int) float64 { return c }
	}},
	// The means are ≈ 10⁹ and differ by < 1: cutViolated's subtraction
	// cancels nine digits, so its own rounding is 10⁻⁷ of ε. Small steps keep
	// the scan hovering at the threshold, where a filter margin sized for the
	// filter's rounding alone would lose cuts.
	{"offset-1e9", func(rng *rand.Rand, n int) func(int) float64 {
		integer := rng.Intn(2) == 0
		step, next := 0.0, 100+rng.Intn(n/4)
		return func(i int) float64 {
			if i == next {
				step += rng.Float64()
				next += 50 + rng.Intn(n/4)
			}
			x := step + rng.Float64()
			if integer {
				x = math.Round(2 * x)
			}
			return 1e9 + x
		}
	}},
	// Past the 2⁵³ guard, and far enough past it that Σx² overflows and the
	// variance goes NaN: the filter is off, or sees what cutViolated sees.
	{"past-guard", func(rng *rand.Rand, n int) func(int) float64 {
		scale := []float64{1e13, 1e17, 1e100, 1e160}[rng.Intn(4)]
		level, next := 1.0, 100+rng.Intn(n/2)
		return func(i int) float64 {
			if i == next {
				level = 1 + 3*rng.Float64()
				next += 100 + rng.Intn(n/2)
			}
			return scale * (level + 0.1*rng.NormFloat64())
		}
	}},
}

func sameState(a, b State) bool {
	bits := math.Float64bits
	if len(a.Rows) != len(b.Rows) || bits(a.Total) != bits(b.Total) || bits(a.Sum) != bits(b.Sum) ||
		bits(a.SumSq) != bits(b.SumSq) || a.SinceCut != b.SinceCut {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j, x := range a.Rows[i] {
			y := b.Rows[i][j]
			if bits(x.Sum) != bits(y.Sum) || bits(x.SumSq) != bits(y.SumSq) || bits(x.Size) != bits(y.Size) {
				return false
			}
		}
	}
	return true
}

// TestMatchesReference holds Window against the unfiltered scan it replaced:
// same Add result, length, mean and serialized state after every element,
// through one State→Restore of both.
func TestMatchesReference(t *testing.T) {
	const n = 1600
	deltas := []float64{0.002, 0.002, 0.05, 0.3}
	var exact, visited int64
	for _, fc := range feedClasses {
		for seed := int64(0); seed < 100; seed++ {
			rng := rand.New(rand.NewSource(seed))
			delta := deltas[rng.Intn(len(deltas))]
			w, ref := New(delta), newRef(delta)
			next := fc.gen(rng, n)
			restoreAt := rng.Intn(n)
			for i := 0; i < n; i++ {
				x := next(i)
				got, want := w.Add(x), ref.Add(x)
				if got != want || w.Len() != ref.Len() ||
					math.Float64bits(w.Mean()) != math.Float64bits(ref.Mean()) {
					t.Fatalf("%s seed %d element %d (%v): Add/Len/Mean = %v/%d/%v, reference %v/%d/%v",
						fc.name, seed, i, x, got, w.Len(), w.Mean(), want, ref.Len(), ref.Mean())
				}
				st, rst := w.State(), ref.State()
				if !sameState(st, rst) {
					t.Fatalf("%s seed %d element %d: state %+v, reference %+v", fc.name, seed, i, st, rst)
				}
				if i == restoreAt {
					exact, visited = exact+w.exactTests, visited+ref.visited
					w, ref = New(delta), newRef(delta)
					w.Restore(st)
					ref.Restore(rst)
				}
			}
			exact, visited = exact+w.exactTests, visited+ref.visited
		}
	}
	t.Logf("%d of %d boundaries reached the exact test", exact, visited)
}

// TestFilterRateOnX3 pins what the filter is for: on the delays of the x3
// feed — the stream every gated workload's Statistics Manager watches — fewer
// than 2 % of the boundaries the scan visits pay for the exact test.
func TestFilterRateOnX3(t *testing.T) {
	ds := gen.Synthetic3(gen.SynthConfig{Duration: 2 * stream.Minute, Seed: 42})
	var exact, visited int64
	ws, refs := make([]*Window, ds.M), make([]*refWindow, ds.M)
	localT := make([]stream.Time, ds.M)
	for i := range ws {
		ws[i], refs[i] = New(0.002), newRef(0.002)
	}
	for _, e := range ds.Arrivals {
		if e.TS > localT[e.Src] {
			localT[e.Src] = e.TS
		}
		d := float64(localT[e.Src] - e.TS)
		if ws[e.Src].Add(d) != refs[e.Src].Add(d) {
			t.Fatalf("seq %d: cut differs from the reference", e.Seq)
		}
	}
	for i := range ws {
		exact, visited = exact+ws[i].exactTests, visited+refs[i].visited
	}
	t.Logf("%d of %d boundaries reached the exact test", exact, visited)
	if visited == 0 || exact*50 >= visited {
		t.Fatalf("%d of %d boundaries reached the exact test, want < 2 %%", exact, visited)
	}
}

// TestRestoreRefusesImpossibleStates: each row is a state no window can be
// in; Restore must say so instead of wrapping a ring.
func TestRestoreRefusesImpossibleStates(t *testing.T) {
	one := BucketState{Sum: 1, SumSq: 1, Size: 1}
	for _, tc := range []struct {
		name string
		st   State
		want string
	}{
		{"row longer than its ring", State{Rows: [][]BucketState{{one, one, one, one, one, one, one, one, one}}, Total: 9, Sum: 9, SumSq: 9}, "adwin: restore: row 0 holds 9 buckets"},
		{"bucket size is not 2^row", State{Rows: [][]BucketState{{one}, {one}}, Total: 2, Sum: 2, SumSq: 2}, "adwin: restore: bucket of size 1 in row 1"},
		{"total is not the sum of the sizes", State{Rows: [][]BucketState{{one, one}}, Total: 3, Sum: 2, SumSq: 2}, "adwin: restore: total 3, buckets hold 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), tc.want) {
					t.Fatalf("recovered %v, want a panic starting %q", r, tc.want)
				}
			}()
			New(0.002).Restore(tc.st)
		})
	}
}

// TestFilterCoversReferenceRounding aims at the one place a filter that is
// exact in real arithmetic still loses cuts: splits whose means sit within a
// few ulps — of the means, not of their difference — of ε, where cutViolated's
// own rounding decides. Whatever cutViolated answers there, mayCut with the
// tightest bounds the scan can hand it (ddLo = dd) must not say no to a yes.
// Fails with margin = 0 within the first few trials.
func TestFilterCoversReferenceRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := New(0.002)
	cuts := 0
	for _, offset := range []float64{0, 1e3, 1e6, 1e9} {
		for trial := 0; trial < 2000; trial++ {
			n0, n1 := float64(1+rng.Intn(1000)), float64(1+rng.Intn(1000))
			n := n0 + n1
			v := math.Exp(rng.Float64()*12 - 4)
			dd := w.confidence(n)
			m := 1 / (1/n0 + 1/n1)
			eps := math.Sqrt(2/m*v*dd) + 2/(3*m)*dd
			for k := -20; k <= 20; k++ {
				// Means exactly eps apart but for k ulps of the larger one.
				mean1 := offset + rng.Float64()
				mean0 := mean1 + eps
				mean0 += float64(k) * (math.Nextafter(mean0, math.Inf(1)) - mean0)
				s0, s1 := mean0*n0, mean1*n1
				if rng.Intn(2) == 0 {
					s0, s1, n0, n1 = s1, s0, n1, n0
				}
				// A window with these halves and this variance has Σx² = n·(v + mean²).
				sum := s0 + s1
				a, b, ok := filterBounds(n, n*v+sum*sum/n, v, dd)
				if !ok {
					t.Fatalf("offset %g trial %d: beyond the guard, the test aims at nothing", offset, trial)
				}
				if w.cutViolated(n0, s0, n1, s1, v, dd) {
					cuts++
					if !mayCut(n0, s0, n1, n, sum, a, b) {
						t.Fatalf("offset %g trial %d k %d: cutViolated(%v, %v, %v, %v, v=%v, dd=%v) but the filter says no",
							offset, trial, k, n0, s0, n1, s1, v, dd)
					}
				}
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no split was a cut: the test aims at nothing")
	}
}
