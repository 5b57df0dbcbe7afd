package dist_test

// The tree behind the one adaptive shell: core.Pipeline runs the plan tree
// behind its K-slack buffers and the feedback loop, one K per stage.

import (
	"fmt"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/difftest/table"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/leakcheck"
	"repro/internal/oracle"
	"repro/internal/stream"
)

var testAdapt = adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second}

// newTree builds the pipeline over a tree shape under the model policy.
// onAdapt receives every adaptation step with the per-stage Ks decided.
func newTree(cond *join.Condition, windows []stream.Time, shape *dist.Shape, onAdapt func(at stream.Time, ks []stream.Time), emit join.EmitFunc) *core.Pipeline {
	var p *core.Pipeline
	cfg := core.Config{Windows: windows, Cond: cond, Adapt: testAdapt, Tree: shape, Emit: emit}
	if onAdapt != nil {
		cfg.OnAdapt = func(ev core.AdaptEvent) { onAdapt(ev.Now, p.CurrentKs()) }
	}
	p = core.New(cfg)
	return p
}

// adaptWorkload builds a seeded disordered 3-stream equi workload. delayMax
// gives each stream's maximum injected delay, so asymmetric disorder
// profiles are one slice away.
func adaptWorkload(seed int64, n int, delayMax [3]stream.Time) (stream.Batch, []stream.Time) {
	w := 2 * stream.Second
	return gen.SparseEqui3(n, seed, 300, delayMax), []stream.Time{w, w, w}
}

// runAdaptiveTree drives one adaptive left-deep tree over the workload.
func runAdaptiveTree(in stream.Batch, windows []stream.Time) *core.Pipeline {
	p := newTree(join.EquiChain(3, 0), windows, dist.Spine(3), nil, nil)
	p.Run(in.Clone())
	return p
}

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

	at := runAdaptiveTree(in, windows)
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

	per := runAdaptiveTree(in, windows)
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

// TestTreeLifecyclePanics: Push-after-Finish and double-Finish panic on a
// tree pipeline exactly as on the flat one (DESIGN.md §3 lifecycle
// conventions, matching Join).
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
	p := newTree(join.EquiChain(2, 0), w, dist.Spine(2), nil, nil)
	p.Push(&stream.Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
	p.Finish()
	mustPanic("Push after Finish", func() {
		p.Push(&stream.Tuple{TS: 2, Src: 1, Attrs: []float64{1}})
	})
	mustPanic("Finish twice", p.Finish)
}

// TestTreeLoopDeterministicWithShards: a tree pipeline's
// decision trajectory and result count are bit-for-bit reproducible across
// runs AND across shard counts ≥ 2 — release points are a function of the
// probe sequence only (every shardDepth probes), and every boundary
// quiesces the workers before deciding. The unsharded path releases stage
// outputs as they are derived and is its own deterministic execution; under a small adaptive K the two interleavings may buffer
// slightly different late tuples, so it is not compared here (the full-K
// differential tests pin unsharded == sharded == flat).
func TestTreeLoopDeterministicWithShards(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.Feed(3, 3000, 23, 40, 2000, 100)
	w := []stream.Time{stream.Second, stream.Second, stream.Second}
	run := func(n int) *difftest.Run {
		inner := dist.Branch(dist.Leaf(0), dist.Leaf(1))
		outer := dist.Branch(inner, dist.Leaf(2))
		inner.Shards, outer.Shards = n, n
		r := table.Pipeline(core.Config{Windows: w, Cond: join.EquiChain(3, 0), Adapt: testAdapt, Tree: outer}, in)
		if len(r.Ks) == 0 {
			t.Fatal("no adaptation steps ran")
		}
		return r
	}
	want := run(2)
	for _, n := range []int{2, 4, 8} {
		difftest.Compare(t, fmt.Sprintf("shards=%d", n), want, run(n))
	}
}

// TestTreeWeightsSkipBufferlessStages: in a balanced bushy
// shape the root stage governs no raw buffer; its scope weight is 0 and its
// decided K stays pinned to 0 while the leaf stages adapt.
func TestTreeWeightsSkipBufferlessStages(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.Feed(4, 2500, 29, 60, 2000, 100)
	w := []stream.Time{stream.Second, stream.Second, stream.Second, stream.Second}
	bushy := dist.Branch(dist.Branch(dist.Leaf(0), dist.Leaf(1)), dist.Branch(dist.Leaf(2), dist.Leaf(3)))
	a := newTree(join.EquiChain(4, 0), w, bushy, nil, nil)
	a.Run(in.Clone())
	if a.Adaptations() == 0 {
		t.Fatal("no adaptation steps ran")
	}
	ks := a.Loop().Ks()
	if len(ks) != 3 {
		t.Fatalf("scopes = %d, want 3", len(ks))
	}
	if ks[2] != 0 {
		t.Errorf("bufferless root stage decided K=%v, want pinned 0", ks[2])
	}
	if a.Loop().AvgK(0) == 0 && a.Loop().AvgK(1) == 0 {
		t.Error("leaf stages never adapted above 0")
	}
	if a.Results() == 0 {
		t.Fatal("degenerate workload")
	}
}
