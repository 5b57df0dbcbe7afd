package qdhj

import (
	"fmt"
	"repro/internal/leakcheck"
	"testing"

	"repro/internal/gen"
)

// feed3 builds a 3-stream equi workload with per-stream disorder bounds.
func feed3(n int, seed int64, delayMax [3]Time) []*Tuple {
	return gen.SparseEqui3(n, seed, 200, delayMax)
}

func mustPanicT(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestTreeJoinLifecycleParity: TreeJoin panics on Push-after-Close and
// double-Close exactly like Join (DESIGN.md §3 conventions), in both the
// static and the adaptive configuration.
func TestTreeJoinLifecycleParity(t *testing.T) {
	leakcheck.Check(t)
	w := []Time{Second, Second}
	for _, tc := range []struct {
		name string
		opts []TreeOption
	}{
		{"static", nil},
		{"adaptive", []TreeOption{WithTreeAdaptation(Options{Gamma: 0.9})}},
	} {
		j := NewTreeJoin(EquiChain(2, 0), w, 0, nil, tc.opts...)
		j.Push(&Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
		j.Close()
		mustPanicT(t, tc.name+": Push after Close", func() {
			j.Push(&Tuple{TS: 2, Src: 1, Attrs: []float64{1}})
		})
		mustPanicT(t, tc.name+": double Close", j.Close)
	}
}

// TestWithPerStageKDiverges drives the public per-stage option end to end:
// on asymmetric-delay inputs the stage Ks diverge and the total buffered
// delay undercuts Same-K adaptation, at equal-or-better recall.
func TestWithPerStageKDiverges(t *testing.T) {
	leakcheck.Check(t)
	in := feed3(4000, 9, [3]Time{100, 100, 2500})
	w := []Time{2 * Second, 2 * Second, 2 * Second}
	opt := Options{Gamma: 0.9, Period: 10 * Second, Interval: Second}

	run := func(opts ...TreeOption) *TreeJoin {
		j := NewTreeJoin(EquiChain(3, 0), w, 0, nil, opts...)
		for _, e := range cloneBatch(in) {
			j.Push(e)
		}
		j.Close()
		return j
	}
	same := run(WithTreeAdaptation(opt))
	per := run(WithTreeAdaptation(opt), WithPerStageK())

	if got := len(same.CurrentKs()); got != 1 {
		t.Fatalf("Same-K adaptation should have 1 decision scope, got %d", got)
	}
	ks := per.CurrentKs()
	if len(ks) != 2 {
		t.Fatalf("per-stage adaptation should have one scope per stage, got %d", len(ks))
	}
	t.Logf("same-K: K=%v sum=%.0f results=%d; per-stage: Ks=%v sum=%.0f results=%d",
		same.CurrentKs(), same.BufferedDelaySum(), same.Results(),
		ks, per.BufferedDelaySum(), per.Results())
	if !(ks[0] < ks[1]) {
		t.Errorf("per-stage Ks did not diverge: %v", ks)
	}
	if !(per.BufferedDelaySum() < same.BufferedDelaySum()) {
		t.Errorf("per-stage buffered delay %.0f not below Same-K %.0f",
			per.BufferedDelaySum(), same.BufferedDelaySum())
	}
	if per.Adaptations() == 0 || same.Adaptations() == 0 {
		t.Error("adaptation did not run")
	}
}

// TestTreeJoinPerStageMatchesTreePlan: a per-stage-adaptive TreeJoin and a
// Join deployed as the left-deep tree plan are the same executor under the
// same Γ′ rule, so on an asymmetric-delay feed they must agree bit-for-bit:
// result count, the full K vector at every boundary, and the number of
// adaptation steps.
func TestTreeJoinPerStageMatchesTreePlan(t *testing.T) {
	leakcheck.Check(t)
	in := feed3(4000, 9, [3]Time{100, 100, 2500})
	w := []Time{2 * Second, 2 * Second, 2 * Second}
	opt := Options{Gamma: 0.9, Period: 10 * Second, Interval: Second}

	var treeKs []string
	tj := NewTreeJoin(EquiChain(3, 0), w, 0, nil, WithTreeAdaptation(opt), WithPerStageK(),
		WithTreeDecideHook(func(at Time, ks []Time) {
			treeKs = append(treeKs, fmt.Sprintf("%v:%v", at, ks))
		}))
	for _, e := range cloneBatch(in) {
		tj.Push(e)
	}
	tj.Close()

	cond := EquiChain(3, 0)
	p, err := ParsePlan("tree", cond, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	var planKs []string
	var pj *Join
	pj = NewJoin(cond, w, opt, WithPlan(p), WithAdaptHook(func(ev AdaptEvent) {
		planKs = append(planKs, fmt.Sprintf("%v:%v", ev.Now, pj.CurrentKs()))
	}))
	for _, e := range cloneBatch(in) {
		pj.Push(e)
	}
	pj.Close()

	if tj.Results() == 0 || tj.Adaptations() == 0 {
		t.Fatalf("degenerate run: %d results, %d adaptations", tj.Results(), tj.Adaptations())
	}
	if tj.Results() != pj.Results() {
		t.Errorf("TreeJoin produced %d results, the tree plan %d", tj.Results(), pj.Results())
	}
	if tj.Adaptations() != pj.Adaptations() {
		t.Errorf("TreeJoin took %d adaptation steps, the tree plan %d", tj.Adaptations(), pj.Adaptations())
	}
	if len(treeKs) != len(planKs) {
		t.Fatalf("decide hooks fired %d vs %d times", len(treeKs), len(planKs))
	}
	for i := range treeKs {
		if treeKs[i] != planKs[i] {
			t.Fatalf("decision %d: TreeJoin chose %s, the tree plan %s", i, treeKs[i], planKs[i])
		}
	}
}

// TestTreeDecideHookFires: the decide hook observes every adaptation step
// with one K per scope.
func TestTreeDecideHookFires(t *testing.T) {
	leakcheck.Check(t)
	in := feed3(2000, 4, [3]Time{1500, 1500, 1500})
	w := []Time{Second, Second, Second}
	var steps int
	var lastKs []Time
	j := NewTreeJoin(EquiChain(3, 0), w, 0, nil,
		WithTreeAdaptation(Options{Gamma: 0.9, Period: 10 * Second, Interval: Second}),
		WithPerStageK(),
		WithTreeDecideHook(func(at Time, ks []Time) {
			steps++
			lastKs = append(lastKs[:0], ks...)
		}))
	for _, e := range cloneBatch(in) {
		j.Push(e)
	}
	j.Close()
	if steps == 0 {
		t.Fatal("decide hook never fired")
	}
	if len(lastKs) != 2 {
		t.Fatalf("hook saw %d scopes, want 2", len(lastKs))
	}
	if int64(steps) != j.Adaptations() {
		t.Errorf("hook fired %d times, Adaptations()=%d", steps, j.Adaptations())
	}
}

// TestStaticSlackTreeAdaptationPanics: WithTreeAdaptation(StaticSlack) is a
// contradiction and must panic rather than silently running a no-op loop.
func TestStaticSlackTreeAdaptationPanics(t *testing.T) {
	leakcheck.Check(t)
	mustPanicT(t, "StaticSlack tree adaptation", func() {
		NewTreeJoin(EquiChain(2, 0), []Time{Second, Second}, 0, nil,
			WithTreeAdaptation(Options{Policy: StaticSlack, StaticK: Second}))
	})
}

// TestDecideHookWithoutAdaptationPanics: a decide hook on a fixed-K tree
// would never fire; the constructor must reject it instead of silently
// dropping it.
func TestDecideHookWithoutAdaptationPanics(t *testing.T) {
	leakcheck.Check(t)
	hook := WithTreeDecideHook(func(Time, []Time) {})
	mustPanicT(t, "TreeJoin hook without adaptation", func() {
		NewTreeJoin(EquiChain(2, 0), []Time{Second, Second}, 0, nil, hook)
	})
}
