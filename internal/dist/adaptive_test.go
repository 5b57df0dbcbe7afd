package dist

import (
	"repro/internal/leakcheck"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/oracle"
	"repro/internal/stream"
)

// adaptWorkload builds a seeded disordered 3-stream equi workload. delayMax
// gives each stream's maximum injected delay, so asymmetric disorder
// profiles are one slice away.
func adaptWorkload(seed int64, n int, delayMax [3]stream.Time) (stream.Batch, []stream.Time) {
	w := 2 * stream.Second
	return gen.SparseEqui3(n, seed, 300, delayMax), []stream.Time{w, w, w}
}

// runAdaptiveTree drives one adaptive left-deep tree over the workload.
func runAdaptiveTree(t *testing.T, in stream.Batch, windows []stream.Time, cfg AdaptiveConfig) *AdaptivePlanTree {
	t.Helper()
	at := NewAdaptivePlanTree(join.EquiChain(3, 0), windows, Spine(3), cfg, nil)
	for _, e := range in.Clone() {
		at.Push(e)
	}
	at.Finish()
	return at
}

var testAdapt = adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second}

// TestTreeAdaptationMeetsRecallTarget: with the feedback loop on, the tree
// on a symmetric-disorder 3-way workload meets the configured recall target
// within tolerance, matching the single-operator pipeline's recall on the
// same input.
func TestTreeAdaptationMeetsRecallTarget(t *testing.T) {
	leakcheck.Check(t)
	in, windows := adaptWorkload(3, 6000, [3]stream.Time{2500, 2500, 2500})
	cond := join.EquiChain(3, 0)
	truth := oracle.TrueResults(cond, windows, in).Total()
	if truth == 0 {
		t.Fatal("degenerate workload: no true results")
	}

	at := runAdaptiveTree(t, in, windows, AdaptiveConfig{Adapt: testAdapt})
	treeRecall := float64(at.Results()) / float64(truth)

	p := core.New(core.Config{Windows: windows, Cond: join.EquiChain(3, 0), Adapt: testAdapt})
	p.Run(in.Clone())
	pipeRecall := float64(p.Results()) / float64(truth)

	t.Logf("truth=%d tree=%d (recall %.4f, avgK %.0f/%.0fms) pipeline=%d (recall %.4f, avgK %.0fms)",
		truth, at.Results(), treeRecall, at.Loop().AvgK(0), at.Loop().AvgK(1), p.Results(), pipeRecall, p.AvgK())
	const tol = 0.02
	if treeRecall < testAdapt.Gamma-tol {
		t.Errorf("tree recall %.4f misses target Γ=%.2f (tol %.2f)", treeRecall, testAdapt.Gamma, tol)
	}
	if treeRecall < pipeRecall-0.05 {
		t.Errorf("tree recall %.4f far below single-operator pipeline's %.4f", treeRecall, pipeRecall)
	}
	if at.Loop().Decisions() == 0 {
		t.Error("no adaptation steps ran")
	}
}

// TestPerStageKDivergesOnAsymmetricDelays: with asymmetric per-stream
// disorder (streams 0 and 1 nearly ordered, stream 2 heavily delayed), the
// tree decides a much smaller K for stage 0 than for stage 1 and still meets
// the recall target.
func TestPerStageKDivergesOnAsymmetricDelays(t *testing.T) {
	leakcheck.Check(t)
	in, windows := adaptWorkload(5, 6000, [3]stream.Time{120, 120, 3000})
	cond := join.EquiChain(3, 0)
	truth := oracle.TrueResults(cond, windows, in).Total()
	if truth == 0 {
		t.Fatal("degenerate workload: no true results")
	}

	per := runAdaptiveTree(t, in, windows, AdaptiveConfig{Adapt: testAdapt})
	perRecall := float64(per.Results()) / float64(truth)
	t.Logf("per-stage: recall %.4f, avgK0 %.0fms avgK1 %.0fms",
		perRecall, per.Loop().AvgK(0), per.Loop().AvgK(1))

	if n := per.Loop().Scopes(); n != 2 {
		t.Fatalf("expected 2 decision scopes, got %d", n)
	}
	k0, k1 := per.Loop().AvgK(0), per.Loop().AvgK(1)
	if !(k0 < k1/2) {
		t.Errorf("per-stage K did not diverge on asymmetric delays: avgK0=%.0f avgK1=%.0f", k0, k1)
	}
	const tol = 0.02
	if perRecall < testAdapt.Gamma-tol {
		t.Errorf("per-stage recall %.4f misses target Γ=%.2f (tol %.2f)", perRecall, testAdapt.Gamma, tol)
	}
}

// TestTreeLifecyclePanics: Push-after-Finish and double-Finish panic on the
// adaptive driver exactly as on the static tree
// (TestPlanTreeLifecyclePanics; DESIGN.md §3 lifecycle conventions, matching
// Join).
func TestTreeLifecyclePanics(t *testing.T) {
	leakcheck.Check(t)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	w := []stream.Time{stream.Second, stream.Second}
	at := NewAdaptivePlanTree(join.EquiChain(2, 0), w, Spine(2), AdaptiveConfig{Adapt: testAdapt}, nil)
	at.Push(&stream.Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
	at.Finish()
	mustPanic("Push after Finish", func() {
		at.Push(&stream.Tuple{TS: 2, Src: 1, Attrs: []float64{1}})
	})
	mustPanic("Finish twice", at.Finish)
}
