package feedback

import (
	"math"
	"testing"

	"repro/internal/adapt"
	"repro/internal/stats"
	"repro/internal/stream"
)

func testLoop(t *testing.T, scopes []Scope) *Loop {
	t.Helper()
	return New(Config{
		Windows: []stream.Time{stream.Second, stream.Second, stream.Second},
		Adapt:   adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second},
		Scopes:  scopes,
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

// TestScopeSourceMerge: multi-stream groups merge CDFs weighted by count,
// take the min KSync and the max recent delay.
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
	cdf := src.CDF(0)
	if cdf == nil {
		t.Fatal("merged CDF is nil despite observed delays")
	}
	// 6 arrivals in the group, 5 with delay 0, one in bucket 3 (30ms at
	// g=10ms): Pr[D ≤ 0] = 5/6, Pr[D ≤ 30ms] = 1.
	if got, want := cdf[0], 5.0/6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("merged cdf[0] = %v, want %v", got, want)
	}
	if got := cdf[len(cdf)-1]; math.Abs(got-1) > 1e-12 {
		t.Errorf("merged cdf top = %v, want 1", got)
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
		a, b := src.CDF(i), mgr.CDF(i)
		if len(a) != len(b) {
			t.Fatalf("stream %d: CDF lengths differ", i)
		}
		for d := range a {
			if a[d] != b[d] {
				t.Fatalf("stream %d bucket %d: %v != %v", i, d, a[d], b[d])
			}
		}
		if src.KSync(i) != mgr.KSync(i) {
			t.Errorf("stream %d: KSync differs", i)
		}
	}
	if src.MaxDelayRecent() != mgr.MaxDelayRecent() {
		t.Error("MaxDelayRecent differs from manager")
	}
}

// TestSharedRequirementNeedsScopeWeights: the shared Γ′ decomposes across
// the scopes by their weights alone — there is no implicit uniform split —
// so a SharedRequirement config without one weight per scope must fail at
// construction, not decide against an undefined requirement.
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
					t.Errorf("%s ScopeWeights under SharedRequirement: expected a construction panic", name)
				}
			}()
			New(Config{Windows: w, Scopes: scopes, SharedRequirement: true, ScopeWeights: weights})
		}()
	}
	New(Config{Windows: w, Scopes: scopes, SharedRequirement: true, ScopeWeights: []float64{2.0 / 3, 1.0 / 3}})
}
