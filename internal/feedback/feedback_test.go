package feedback

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/stats"
	"repro/internal/stream"
)

func testLoop(t *testing.T, scopes []Scope, weights ...float64) *Loop {
	t.Helper()
	return New(Config{
		Windows:      []stream.Time{stream.Second, stream.Second, stream.Second},
		Adapt:        adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second},
		Scopes:       scopes,
		ScopeWeights: weights,
	})
}

// TestBoundarySchedule: the first observation anchors the schedule; one
// decision per crossed interval; a sparse arrival crossing several
// boundaries collapses into ONE decision at the last crossed boundary.
func TestBoundarySchedule(t *testing.T) {
	l := testLoop(t, nil)
	if _, ok := l.Boundary(5000); ok {
		t.Fatal("first observation must only anchor the schedule")
	}
	if _, ok := l.Boundary(5500); ok {
		t.Fatal("mid-interval: no decision due")
	}
	at, ok := l.Boundary(6000)
	if !ok || at != 6000 {
		t.Fatalf("boundary at 6000: got (%d,%v)", at, ok)
	}
	// Jump across 3 boundaries: one decision, anchored at the last (9500
	// lies in [9000, 10000), so the last crossed boundary is 9000).
	at, ok = l.Boundary(9500)
	if !ok || at != 9000 {
		t.Fatalf("collapsed boundary: got (%d,%v), want (9000,true)", at, ok)
	}
	if _, ok := l.Boundary(9900); ok {
		t.Fatal("9900 is before the next boundary 10000")
	}
}

// TestScopeSourceMerge: multi-stream groups hand the model their member
// histograms to sum bucket-wise, take the min KSync and the max recent delay.
func TestScopeSourceMerge(t *testing.T) {
	g := 10 * stream.Millisecond
	mgr := stats.NewManager(3, g)
	// Stream 0: delays 0 (3 tuples in ts order). Stream 1: one 0-delay, then
	// a 30ms-late tuple. Stream 2: unused by the scope.
	push := func(src int, ts stream.Time) {
		mgr.Observe(&stream.Tuple{Src: src, TS: ts})
	}
	push(0, 1000)
	push(0, 1010)
	push(0, 1020)
	push(1, 1000)
	push(1, 1030)
	push(1, 1000) // 30ms late
	push(2, 1000)

	src := newScopeSource(mgr, [][]int{{0, 1}, {2}})
	// 6 arrivals in the group, 5 with delay 0, one in bucket 3 (30ms at
	// g=10ms): Pr[D ≤ 0] = 5/6, Pr[D ≤ 30ms] = 1.
	var sum [4]int64
	var total int64
	for _, h := range src.Delays(0) {
		total += h.Total()
		for d, c := range h.Counts() {
			sum[d] += c
		}
	}
	if want := [4]int64{5, 0, 0, 1}; sum != want || total != 6 {
		t.Errorf("merged counts = %v of %d, want %v of 6", sum, total, want)
	}
	if got, want := src.MaxDelayRecent(), 30*stream.Millisecond; got != want {
		t.Errorf("scope MaxDelayRecent = %v, want %v", got, want)
	}
	// The singleton group delegates to the manager unchanged.
	if got, want := src.KSync(1), mgr.KSync(2); got != want {
		t.Errorf("singleton KSync = %v, want manager's %v", got, want)
	}
}

// TestSingleScopeMatchesManager: for the global scope, the scope source is
// numerically identical to the manager itself — the property the pipeline's
// bit-for-bit golden trace rests on.
func TestSingleScopeMatchesManager(t *testing.T) {
	g := 10 * stream.Millisecond
	mgr := stats.NewManager(2, g)
	for i := 0; i < 50; i++ {
		ts := stream.Time(1000 + 10*i)
		mgr.Observe(&stream.Tuple{Src: 0, TS: ts})
		if i%5 == 0 {
			ts -= 40
		}
		mgr.Observe(&stream.Tuple{Src: 1, TS: ts})
	}
	src := newScopeSource(mgr, [][]int{{0}, {1}})
	for i := 0; i < 2; i++ {
		if a := src.Delays(i); len(a) != 1 || a[0] != mgr.Hist(i) {
			t.Fatalf("stream %d: the scope must read the manager's own histogram", i)
		}
		if src.KSync(i) != mgr.KSync(i) {
			t.Errorf("stream %d: KSync differs", i)
		}
	}
	if src.MaxDelayRecent() != mgr.MaxDelayRecent() {
		t.Error("MaxDelayRecent differs from manager")
	}
}

// TestSharedRequirementNeedsScopeWeights: the root's Γ′ decomposes across
// the scopes by their weights alone — there is no implicit uniform split —
// so a multi-scope config without one weight per scope must fail at
// construction, not decide against an undefined requirement. A single scope
// defaults to the weight 1.
func TestSharedRequirementNeedsScopeWeights(t *testing.T) {
	w := []stream.Time{stream.Second, stream.Second, stream.Second}
	scopes := []Scope{
		{Groups: [][]int{{0}, {1}}, Windows: w[:2]},
		{Groups: [][]int{{0, 1}, {2}}, Windows: w[1:]},
	}
	for name, weights := range map[string][]float64{"missing": nil, "short": {1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s ScopeWeights on two scopes: expected a construction panic", name)
				}
			}()
			New(Config{Windows: w, Scopes: scopes, ScopeWeights: weights})
		}()
	}
	New(Config{Windows: w, Scopes: scopes, ScopeWeights: []float64{2.0 / 3, 1.0 / 3}})
	New(Config{Windows: w})
}

// TestDecideAtZeroAllocs gates the decision path: once warmed, a whole
// DecideAt — profiler snapshot and reset, Γ′ derivation, the Alg. 3 search
// over every scope, monitor bookkeeping — allocates nothing, on the single
// global scope and on a two-scope per-stage loop whose second scope reads a
// merged (two-stream) left input; and on a NoK loop, whose snapshot no one
// queries, so its out-of-order delays are copied and never sorted.
func TestDecideAtZeroAllocs(t *testing.T) {
	w := []stream.Time{2 * stream.Second, 2 * stream.Second, 2 * stream.Second}
	acfg := adapt.Config{Gamma: 0.95, P: 10 * stream.Second, L: stream.Second}
	loops := map[string]*Loop{
		"global": New(Config{Windows: w, Adapt: acfg}),
		"per-stage": New(Config{Windows: w, Adapt: acfg,
			Scopes: []Scope{
				{Groups: [][]int{{0}, {1}}, Windows: w[:2]},
				{Groups: [][]int{{0, 1}, {2}}, Windows: w[1:]},
			},
			ScopeWeights: []float64{2.0 / 3, 1.0 / 3}}),
		"nok": New(Config{Windows: w, Adapt: acfg, Policy: NoKPolicy()}),
	}
	for name, l := range loops {
		rng := rand.New(rand.NewSource(9))
		ts := stream.Time(5000)
		// interval feeds one adaptation interval the way an executor would:
		// arrivals (a quarter of them up to 1.5 s late), productivity records
		// per scope, results.
		interval := func() (at stream.Time) {
			for {
				ts += 10
				for src := 0; src < 3; src++ {
					e := &stream.Tuple{TS: ts, Src: src}
					if rng.Intn(4) == 0 {
						e.TS -= stream.Time(rng.Intn(1500))
					}
					now := l.Observe(e)
					for sc := 0; sc < l.Scopes(); sc++ {
						if d := ts - e.TS; d > 800 {
							l.RecordOutOfOrder(sc, d)
						} else {
							l.RecordInOrder(sc, d, 40, int64(rng.Intn(8)))
						}
					}
					l.ObserveResult(e.TS, 3)
					if at, ok := l.Boundary(now); ok {
						return at
					}
				}
			}
		}
		for i := 0; i < 30; i++ { // warm: histories, ADWIN, every reused slice
			at := interval()
			l.DecideAt(at, at-500)
		}
		if k := l.Ks()[l.Scopes()-1]; k == 0 && name != "nok" {
			t.Fatalf("%s: warm-up never decided a positive K — the search is not exercised", name)
		}
		at := interval()
		if n := testing.AllocsPerRun(20, func() {
			// The same boundary again, with a fresh interval's productivity
			// records (in-order and out-of-order) so the snapshot, Eq. 6 and
			// Eq. 7 all run; the statistics — and so the search — repeat.
			for sc := 0; sc < l.Scopes(); sc++ {
				for d := stream.Time(0); d < 800; d += 10 {
					l.RecordInOrder(sc, d, 40, int64(d%7))
				}
				l.RecordOutOfOrder(sc, 1200)
				l.RecordOutOfOrder(sc, 900)
			}
			l.DecideAt(at, at-500)
		}); n != 0 {
			t.Errorf("%s: DecideAt allocates %v times per decision, want 0", name, n)
		}
	}
}

// TestRestoreRefusesMismatchedStates: a state captured from a loop of another
// shape — or a corrupt one — is refused with a "feedback: restore: …" panic
// rather than an index panic part-way through the restore.
func TestRestoreRefusesMismatchedStates(t *testing.T) {
	w := []stream.Time{stream.Second, stream.Second, stream.Second}
	twoScopes := []Scope{
		{Groups: [][]int{{0}, {1}}, Windows: w[:2]},
		{Groups: [][]int{{0, 1}, {2}}, Windows: w[1:]},
	}
	global := testLoop(t, nil).State()
	perStage := testLoop(t, twoScopes, 0.5, 0.5).State()
	for _, tc := range []struct {
		name string
		st   State
		want string
	}{
		{"one scope into two", global, "feedback: restore: 1 Ks, 1 K sums and 1 profilers into a loop of 2 scopes"},
		{"K sums missing", func() State { st := perStage; st.SumK = st.SumK[:1]; return st }(), "feedback: restore: 2 Ks, 1 K sums and 2 profilers into a loop of 2 scopes"},
		{"profilers missing", func() State { st := perStage; st.Profilers = nil; return st }(), "feedback: restore: 2 Ks, 2 K sums and 0 profilers into a loop of 2 scopes"},
		{"monitor points without counts", func() State { st := perStage; st.Monitor.PointTS = []stream.Time{1}; return st }(), "monitor: restore: 1 point timestamps and 0 point counts"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), tc.want) {
					t.Fatalf("recovered %v, want a panic starting %q", r, tc.want)
				}
			}()
			testLoop(t, twoScopes, 0.5, 0.5).Restore(tc.st)
		})
	}
	testLoop(t, twoScopes, 0.5, 0.5).Restore(perStage) // the matching state still loads
}

// TestRestoreCarriesGammaPrime: Γ′ survives a restore. A loop past a few
// decisions is captured, restored into a fresh loop of the same Config and
// captured again: GammaPrime reads the same bits before the next decision,
// and the two captures are equal.
func TestRestoreCarriesGammaPrime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := testLoop(t, nil)
	ts, decided := stream.Time(5000), 0
	for decided < 5 {
		ts += 10
		for src := 0; src < 3; src++ {
			e := &stream.Tuple{TS: ts - stream.Time(rng.Intn(300)), Src: src}
			now := l.Observe(e)
			l.RecordInOrder(0, ts-e.TS, 40, int64(rng.Intn(8)))
			l.ObserveResult(e.TS, 3)
			if at, ok := l.Boundary(now); ok {
				l.DecideAt(at, at-200)
				decided++
			}
		}
	}
	if l.GammaPrime() == 0 {
		t.Fatal("five decisions derived no Γ′: the model policy is not exercised")
	}
	st := l.State()
	r := testLoop(t, nil)
	r.Restore(st)
	if got, want := math.Float64bits(r.GammaPrime()), math.Float64bits(l.GammaPrime()); got != want {
		t.Fatalf("restored GammaPrime %v, want %v", r.GammaPrime(), l.GammaPrime())
	}
	if again := r.State(); !reflect.DeepEqual(again, st) {
		t.Fatalf("capture → restore → capture differs:\n%+v\nwant\n%+v", again, st)
	}
}
