// Package adwin implements the ADWIN adaptive windowing algorithm of Bifet
// and Gavaldà (SIAM SDM 2007), which the paper (Sec. IV-A, citing [25]) uses
// to size the per-stream delay-statistics history R^stat: the window grows
// while the delay distribution is stable and shrinks automatically when a
// change in the disorder pattern is detected.
//
// The stream summary is an exponential histogram of buckets, so memory is
// O(M·log(W/M)) for window length W. Every eighth Add scans all bucket
// boundaries, oldest first, for a split (n0, s0 | n1, s1) of the window's n
// elements and sum s whose means differ by more than the Bernstein bound
//
//	|s0/n0 − s1/n1| > ε = √(2·v·dd/m) + 2·dd/(3m),   1/m = 1/n0 + 1/n1,
//
// with v the window's variance and dd = ln(2·ln n/δ) (cutViolated): seven
// divisions and a square root, and on a stable stream almost no boundary is
// anywhere near it. So the scan asks a cheaper question first. n0 + n1 = n
// gives 1/m = n/(n0·n1), and the test times n0·n1 reads
//
//	d > √(A·n0·n1) + B,   d = |s0·n1 − s1·n0| = |s0·n − s·n0|,
//	                      A = 2·v·dd·n,  B = ⅔·dd·n,
//
// which can only hold if d − B > 0 and (d − B)² > A·n0·n1 (mayCut): five
// multiplications against per-scan constants. A boundary that passes runs
// cutViolated unchanged; one that fails is not a cut, so the filter must err
// towards passing (filterBounds):
//
//   - dd is a lower bound: ln(2·ln n/δ) = ln(2/δ) + ln ln n is monotone in
//     n, so its value at any smaller n will do. The scan takes it at the
//     power of two at or below n, from a table of ln ln 2^k, less a relative
//     slack that covers the table's rounding: no logarithm per scan.
//   - A and B are scaled down by margin, which dwarfs the few-ulp relative
//     error of either side's products, root and sums.
//   - B is lowered by margin·G, G = n·√(n·Σx²). cutViolated rounds s0/n0 and
//     s1/n1 and then subtracts, so its left side is off by an ulp of the
//     *means*, however small their difference (on delays of 10⁹ ± 1 that is
//     10⁻⁷ of ε). Times n0·n1 that is an ulp of |s0|·n1 + |s1|·n0, as is the
//     filter's own error when its products round, and that sum is at most
//     n·Σ|x| ≤ G (Cauchy–Schwarz).
//
// Delays are integers, so while G < 2⁵³ the filter's products are exact and
// it adds no rounding of its own; beyond that guard, and when Σx² has
// overflowed, the scan tests every boundary as before. Either way Window
// cuts where the unfiltered scan cuts, bit for bit: TestMatchesReference
// holds it against that scan, TestFilterCoversReferenceRounding aims at the
// ulps (it fails at margin 0 and passes from 2⁻⁵² up; 2⁻³² leaves 2²⁰ to spare).
//
// A cut drops the oldest bucket and tests again until no boundary violates:
// a cascade of drops. Whichever boundary violates, the drop is the same, so
// after a drop at boundary k (the split after the k+1 oldest buckets) Add
// first runs the exact test at boundary k − 1 — the same split, one bucket
// fewer in front of it. A hit drops again without a scan; a miss falls back
// to the full filtered scan, and every cascade ends with one that finds
// nothing. On x3 ≈ 80 % of the drops are hits (TestFilterRateOnX3 gates
// ≥ 75 %), so a cut costs per dropped bucket, and each resumed test is O(1):
// (n0, s0) is the scan's, less the dropped bucket's size and sum. That
// equals what summing the rows oldest first gives only while every partial
// sum is an integer below 2⁵³ in magnitude: the filter's guard G < 2⁵³
// bounds them, and a cascade checks once, at its start, that every bucket
// sum is an integer (a cascade only drops buckets). Otherwise — fractional
// elements, or a restored window's fractional sums — the resumed test walks
// the rows as the scan does.
//
// No exact test, in a scan or resumed, pays for dd's two logarithms unless
// it must. dd is bracketed between the filter's lower bound and the same
// table's value at the next power of two, plus the slack. ε is monotone in
// dd under correctly rounded operations, so a split beyond ε(ddHi) is a cut
// and one within ε(ddLo) is not, whatever dd is; only a split between the
// two computes dd, once per scan or resumed test (on x3, 50 of 1 200).
package adwin

import (
	"fmt"
	"math"
)

// maxBucketsPerRow bounds how many buckets of equal capacity are kept before
// two are merged into the next row; the original paper uses M = 5.
const maxBucketsPerRow = 5

// rowSlots is the ring size of a row: the power of two that holds
// maxBucketsPerRow buckets plus the transient one before a merge, so a slot
// index is a mask away.
const rowSlots = 8

// The cut scan runs on every checkEach-th element, once the window holds
// minLength of them.
const (
	minLength = 16
	checkEach = 8
)

// margin is the filter's relative safety margin (see the package comment):
// far above float64's 2⁻⁵³ rounding, far below anything that would let a
// boundary through for no reason. A negative margin loses cuts.
const margin = 0x1p-32

// bucket aggregates 2^row consecutive elements; the row implies the size.
type bucket struct {
	sum   float64
	sumSq float64
}

// capacity returns 2^i, the number of elements a bucket of row i aggregates.
func capacity(i int) float64 { return float64(uint64(1) << uint(i)) }

// row is one capacity class of the exponential histogram: a fixed ring of
// buckets, oldest at head. A ring rather than a slice keeps insertion
// allocation-free.
type row struct {
	buf  [rowSlots]bucket
	head int
	n    int
}

// push appends a bucket at the newest end.
func (r *row) push(b bucket) {
	r.buf[(r.head+r.n)&(rowSlots-1)] = b
	r.n++
}

// pop removes and returns the oldest bucket.
func (r *row) pop() bucket {
	b := r.buf[r.head]
	r.head = (r.head + 1) & (rowSlots - 1)
	r.n--
	return b
}

// at returns the i-th oldest bucket in place.
func (r *row) at(i int) *bucket {
	return &r.buf[(r.head+i)&(rowSlots-1)]
}

// Window is an ADWIN sliding window over a real-valued stream.
// The zero value is not ready for use; call New.
type Window struct {
	delta    float64
	rows     []row // rows[i] holds buckets of capacity 2^i
	total    float64
	sum      float64
	sumSq    float64
	sinceCut int

	ln2d float64 // ln(2/δ), dd's constant term

	// Read by tests only: boundaries that reached the exact test, those of
	// them that computed dd, drops the resumed test found without a full
	// scan, and resumed tests that walked the rows for their (n0, s0).
	exactTests, exactDD, resumeHits, walks int64
}

// New creates an ADWIN window with confidence parameter delta ∈ (0,1);
// smaller delta makes shrinking more conservative. The canonical choice
// delta = 0.002 is a good default for delay monitoring.
func New(delta float64) *Window {
	if delta <= 0 || delta >= 1 {
		delta = 0.002
	}
	return &Window{delta: delta, ln2d: math.Log(2 / delta)}
}

// Add appends one element to the window head and returns true if the window
// detected a distribution change and dropped its stale tail: it evaluates the
// cut condition at every bucket boundary, oldest first, and drops tail buckets
// while any split shows a significant difference in means.
func (w *Window) Add(x float64) bool {
	w.insert(x)
	w.sinceCut++
	if w.sinceCut < checkEach || w.total < minLength {
		return false
	}
	w.sinceCut = 0
	c := w.scan()
	if c.at < 0 {
		return false
	}
	whole := w.wholeSums()
	for {
		size, sum := w.dropOldestBucket()
		// The split that cut is boundary at − 1 now; test it first.
		if c.at > 0 && w.resume(&c, size, sum, whole) {
			w.resumeHits++
		} else if c = w.scan(); c.at < 0 {
			return true
		}
	}
}

// split is a boundary the scan found violated: its index at, the tail
// aggregate (n0, s0) summed oldest first, and whether the window was within
// the filter's guard G < 2⁵³, which bounds every partial sum of it and of
// what a cascade leaves of it.
type split struct {
	at      int
	n0, s0  float64
	guarded bool
}

// Len returns the current window length in elements.
func (w *Window) Len() int { return int(w.total) }

// Mean returns the mean of the elements currently in the window.
func (w *Window) Mean() float64 {
	if w.total == 0 {
		return 0
	}
	return w.sum / w.total
}

// insert adds a capacity-1 bucket and compresses rows that overflow.
func (w *Window) insert(x float64) {
	if len(w.rows) == 0 {
		w.rows = append(w.rows, row{})
	}
	w.rows[0].push(bucket{sum: x, sumSq: x * x})
	w.total++
	w.sum += x
	w.sumSq += x * x
	for i := 0; w.rows[i].n > maxBucketsPerRow; i++ {
		// Merge the two oldest buckets of this row into one bucket of the
		// next row.
		r := &w.rows[i]
		b0, b1 := r.at(0), r.at(1)
		merged := bucket{sum: b0.sum + b1.sum, sumSq: b0.sumSq + b1.sumSq}
		r.head = (r.head + 2) & (rowSlots - 1)
		r.n -= 2
		if i+1 == len(w.rows) {
			w.rows = append(w.rows, row{})
		}
		w.rows[i+1].push(merged)
	}
}

// confidence returns dd = ln(2/δ′) = ln(2·ln n/δ) for a window of n elements.
func (w *Window) confidence(n float64) float64 {
	return math.Log(2 * math.Log(math.Max(n, math.E)) / w.delta)
}

// lnln[k] = ln ln 2^k: dd less ln(2/δ) at the powers of two.
var lnln = func() (t [65]float64) {
	for k := range t {
		t[k] = math.Log(float64(k) * math.Ln2)
	}
	return t
}()

// ddSlack is the relative slack ddBounds widens its bounds by: far above
// the few ulps by which the table's ln(2/δ) + ln ln 2^k and confidence's
// ln(2·ln n/δ) may round apart, far below the gap between two powers of two.
const ddSlack = 0x1p-40

// ddLo and ddHi return lo ≤ dd = confidence(total) ≤ hi for a window of
// total ≥ minLength elements: dd at the powers of two 2^k ≤ total <
// 2^(k+1), widened by ddSlack (dd is positive there); hi is +Inf past the
// table.
func (w *Window) ddLo(total float64) float64 {
	return (w.ln2d + lnln[log2(total)]) * (1 - ddSlack)
}

func (w *Window) ddHi(total float64) float64 {
	if k := log2(total) + 1; k < len(lnln) {
		return (w.ln2d + lnln[k]) * (1 + ddSlack)
	}
	return math.Inf(1)
}

// log2 returns ⌊log₂ x⌋ for a normal x ≥ 1, at most len(lnln) − 1.
func log2(x float64) int { return min(int(math.Float64bits(x)>>52)-1023, len(lnln)-1) }

// scan tests the bucket boundaries once, oldest first, and returns the first
// that violates the cut condition — boundary k splits off the k+1 oldest
// buckets — or a split with at = −1 if none does.
func (w *Window) scan() split {
	total, sum := w.total, w.sum
	if total < minLength {
		return split{at: -1}
	}
	// Whole-window state, hoisted out of the boundary scan.
	v := w.variance()
	ddLo := w.ddLo(total)
	a, b, filter := filterBounds(total, w.sumSq, v, ddLo)
	dd := 0.0 // the exact term, computed by the first boundary that needs it
	// Walk from the oldest bucket towards the newest, maintaining the tail
	// aggregate (n0, s0); head aggregate is the complement. Oldest buckets
	// live in the highest row, at the front of that row.
	n0, s0, k := 0.0, 0.0, 0
	for i := len(w.rows) - 1; i >= 0; i-- {
		r, size := &w.rows[i], capacity(i)
		for j := 0; j < r.n; j, k = j+1, k+1 {
			n0 += size
			s0 += r.at(j).sum
			n1 := total - n0
			if n1 < 1 || filter && !mayCut(n0, s0, n1, total, sum, a, b) {
				continue
			}
			if w.violated(n0, s0, n1, sum-s0, v, ddLo, &dd) {
				return split{at: k, n0: n0, s0: s0, guarded: filter}
			}
		}
	}
	return split{at: -1}
}

// violated answers cutViolated at dd = confidence(total), given ddLo =
// w.ddLo(total), computing dd into *dd (0 until then) only for a split
// between ε(ddLo) and ε(ddHi). The upper bound goes first: most exact tests
// a cut pays for are the resumed ones that hit.
func (w *Window) violated(n0, s0, n1, s1, v, ddLo float64, dd *float64) bool {
	w.exactTests++
	gap, m := gapOf(n0, s0, n1, s1)
	if gap > epsOf(m, v, w.ddHi(w.total)) {
		return true
	}
	if !(gap > epsOf(m, v, ddLo)) { // NaN too, which cutViolated rejects
		return false
	}
	if *dd == 0 {
		*dd = w.confidence(w.total)
		w.exactDD++
	}
	return w.cutViolated(n0, s0, n1, s1, v, *dd)
}

// resume runs the exact cut test at boundary c.at − 1 after the drop of the
// oldest bucket, of the given size and sum, and on a cut moves c there. It
// answers bit for bit what scan answers at that boundary, but carries (n0,
// s0) past the drop where c is guarded and the cascade began with whole
// bucket sums (package comment).
func (w *Window) resume(c *split, size, sum float64, whole bool) bool {
	total := w.total
	if total < minLength {
		return false
	}
	n0, s0 := c.n0-size, c.s0-sum
	if !c.guarded || !whole {
		n0, s0 = w.walk(c.at - 1)
		w.walks++
	}
	n1 := total - n0
	if n1 < 1 {
		return false
	}
	dd := 0.0
	if !w.violated(n0, s0, n1, w.sum-s0, w.variance(), w.ddLo(total), &dd) {
		return false
	}
	c.at, c.n0, c.s0 = c.at-1, n0, s0
	return true
}

// wholeSums reports whether every bucket sum is an integer.
func (w *Window) wholeSums() bool {
	for i := range w.rows {
		r := &w.rows[i]
		for j := 0; j < r.n; j++ {
			if s := r.at(j).sum; s != math.Trunc(s) {
				return false
			}
		}
	}
	return true
}

// walk returns the tail aggregate (n0, s0) of boundary k, summed oldest
// first as scan sums it.
func (w *Window) walk(k int) (n0, s0 float64) {
	for i := len(w.rows) - 1; i >= 0; i-- {
		r, size := &w.rows[i], capacity(i)
		for j := 0; j < r.n; j++ {
			n0 += size
			s0 += r.at(j).sum
			if k--; k < 0 {
				return n0, s0
			}
		}
	}
	return n0, s0
}

// filterBounds returns the filter's per-scan constants (package comment) for a
// window of total elements, square sum sumSq and variance v, given a lower
// bound ddLo of its dd: A and B less the margins, and whether it may run.
func filterBounds(total, sumSq, v, ddLo float64) (a, b float64, ok bool) {
	// Cauchy–Schwarz: |s0|·n1 + |s1|·n0 ≤ n·Σ|x| ≤ n·√(n·Σx²) at every boundary.
	g := total * math.Sqrt(total*sumSq)
	a = 2 * v * ddLo * total * (1 - margin)
	b = 2.0/3*ddLo*total*(1-margin) - margin*g
	return a, b, g < 0x1p53 // false for NaN too
}

// mayCut is the filter: false only where cutViolated is false for every dd
// at least the ddLo that a and b were built from. s0·n − s·n0 is s0·n1 − s1·n0.
func mayCut(n0, s0, n1, total, sum, a, b float64) bool {
	x := math.Abs(s0*total-sum*n0) - b
	return x > 0 && x*x > a*n0*n1
}

// cutViolated implements the variance-based (Bernstein) ADWIN significance
// test, which — unlike the plain Hoeffding form — works for values of
// arbitrary scale such as millisecond delays: with harmonic sample size m,
// window variance v and confidence δ′ = δ / ln(n),
//
//	ε = sqrt((2/m)·v·ln(2/δ′)) + (2/(3m))·ln(2/δ′).
//
// v and dd are the whole-window variance and ln(2/δ′) term, computed by the
// caller at most once per scan.
func (w *Window) cutViolated(n0, s0, n1, s1, v, dd float64) bool {
	gap, m := gapOf(n0, s0, n1, s1)
	return gap > epsOf(m, v, dd)
}

// gapOf returns the split's |mean0 − mean1| and its harmonic sample size m.
func gapOf(n0, s0, n1, s1 float64) (gap, m float64) {
	return math.Abs(s0/n0 - s1/n1), 1 / (1/n0 + 1/n1)
}

// epsOf returns the cut threshold ε for harmonic sample size m, window
// variance v and confidence term dd: non-decreasing in dd, since every
// operation is.
func epsOf(m, v, dd float64) float64 {
	return math.Sqrt(2/m*v*dd) + 2/(3*m)*dd
}

// variance returns the empirical variance of the whole window.
func (w *Window) variance() float64 {
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

// BucketState is the serialized form of one exponential-histogram bucket.
type BucketState struct {
	Sum, SumSq, Size float64
}

// State is the serializable snapshot of a Window: per-row bucket lists,
// oldest first, plus the aggregates and the cut-check phase.
type State struct {
	Rows     [][]BucketState
	Total    float64
	Sum      float64
	SumSq    float64
	SinceCut int
}

// State captures the window's state.
func (w *Window) State() State {
	st := State{Total: w.total, Sum: w.sum, SumSq: w.sumSq, SinceCut: w.sinceCut,
		Rows: make([][]BucketState, len(w.rows))}
	for i := range w.rows {
		r := &w.rows[i]
		st.Rows[i] = make([]BucketState, r.n)
		for j := 0; j < r.n; j++ {
			b := r.at(j)
			st.Rows[i][j] = BucketState{Sum: b.sum, SumSq: b.sumSq, Size: capacity(i)}
		}
	}
	return st
}

// Restore loads a captured state into a freshly constructed window (same
// delta). It panics with an "adwin: restore: …" message on a state no window
// can be in — a row of more than maxBucketsPerRow buckets, a bucket of row i
// whose size is not 2^i, a Total that is not the sum of the sizes.
func (w *Window) Restore(st State) {
	w.total = st.Total
	w.sum = st.Sum
	w.sumSq = st.SumSq
	w.sinceCut = st.SinceCut
	w.rows = make([]row, len(st.Rows))
	total := 0.0
	for i, bs := range st.Rows {
		if len(bs) > maxBucketsPerRow {
			panic(fmt.Sprintf("adwin: restore: row %d holds %d buckets, at most %d fit", i, len(bs), maxBucketsPerRow))
		}
		for _, b := range bs {
			if b.Size != capacity(i) {
				panic(fmt.Sprintf("adwin: restore: bucket of size %v in row %d, want %v", b.Size, i, capacity(i)))
			}
			total += b.Size
			w.rows[i].push(bucket{sum: b.Sum, sumSq: b.SumSq})
		}
	}
	if total != st.Total {
		panic(fmt.Sprintf("adwin: restore: total %v, buckets hold %v", st.Total, total))
	}
}

// dropOldestBucket removes the single oldest bucket from the histogram and
// returns its size and sum.
func (w *Window) dropOldestBucket() (size, sum float64) {
	for i := len(w.rows) - 1; i >= 0; i-- {
		r := &w.rows[i]
		if r.n == 0 {
			continue
		}
		b := r.pop()
		w.total -= capacity(i)
		w.sum -= b.sum
		w.sumSq -= b.sumSq
		// Trim empty high rows so future scans stay short.
		for len(w.rows) > 1 && w.rows[len(w.rows)-1].n == 0 {
			w.rows = w.rows[:len(w.rows)-1]
		}
		return capacity(i), b.sum
	}
	return 0, 0
}
