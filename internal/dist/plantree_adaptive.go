// Adaptive driver for the plan tree: the feedback runtime with the decision
// scopes derived from the deployment shape. Stage j's scope models the
// binary join of its two sub-plan inputs, and the shared instant
// requirement Γ′ composes along root-to-leaf paths:
// every raw leaf contributes one Γ′^(1/m) factor, charged to the stage
// whose K-slack buffer governs that leaf. On the spine this charges stage 0
// two factors and every other stage one; the rule extends to shapes where
// stages govern zero, one or two leaves (DESIGN §8/§9). Stages with no leaf
// buffer get weight 0: the loop pins their K to 0, since no buffer would
// apply it — their input jitter is absorbed by the stage Synchronizer
// instead.
package dist

import (
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/stream"
)

// AdaptivePlanTree is the plan-tree executor with the quality-driven
// feedback loop in the driver seat. Decisions stay deterministic even with
// sharded stages: every boundary quiesces the stage workers first
// (Quiesce), so the profilers see exactly the records a single-threaded
// run would have fed them. It embeds the tree it drives: Push, ShedWorst,
// State, Restore and Abandon add the loop, the tree's other methods serve
// as they are.
type AdaptivePlanTree struct {
	*PlanTree
	loop *feedback.Loop
	fr   feedRouter
	cfg  AdaptiveConfig
}

// planScopes builds one decision scope per stage of the built tree, in the
// tree's post-order (the root scope last, as feedback requires), plus the
// Γ′ path weights: leaves-governed / m.
func planScopes(t *PlanTree) (scopes []feedback.Scope, weights []float64) {
	minWindow := func(streams []int) stream.Time {
		w := t.windows[streams[0]]
		for _, st := range streams[1:] {
			if t.windows[st] < w {
				w = t.windows[st]
			}
		}
		return w
	}
	for _, s := range t.stages {
		scopes = append(scopes, feedback.Scope{
			Groups:  [][]int{s.sideStreams[0], s.sideStreams[1]},
			Windows: []stream.Time{minWindow(s.sideStreams[0]), minWindow(s.sideStreams[1])},
		})
		weights = append(weights, float64(len(s.leafBufs))/float64(t.m))
	}
	return scopes, weights
}

// NewAdaptivePlanTree builds the adaptive plan-tree executor. sink
// (optional) receives every complete result.
func NewAdaptivePlanTree(cond *join.Condition, windows []stream.Time, shape *Shape, cfg AdaptiveConfig, sink func(Partial)) *AdaptivePlanTree {
	t := NewPlanTree(cond, windows, shape, cfg.InitialK, sink)
	scopes, weights := planScopes(t)
	loop := feedback.New(feedback.Config{
		Windows:           windows,
		Adapt:             cfg.Adapt,
		Policy:            cfg.Policy,
		Scopes:            scopes,
		ScopeWeights:      weights,
		SharedRequirement: true,
		InitialK:          cfg.InitialK,
	})
	a := &AdaptivePlanTree{
		PlanTree: t,
		loop:     loop,
		fr:       feedRouter{loop: loop, root: len(t.stages) - 1},
		cfg:      cfg,
	}
	t.setProdHook(a.fr.route)
	return a
}

// Push feeds one raw arrival and runs any due adaptation step.
func (a *AdaptivePlanTree) Push(e *stream.Tuple) {
	now := a.loop.Observe(e)
	a.PlanTree.Push(e)
	if at, ok := a.loop.Boundary(now); ok {
		a.Quiesce()
		ks := a.loop.DecideAt(at, a.Watermark())
		a.SetStageK(ks)
		// Applying a smaller K releases buffered tuples into the tree, so
		// the pipeline is no longer empty after SetStageK. Barrier again: the
		// boundary must be a fully quiesced point, so that a checkpoint
		// captured here (State quiesces) observes exactly the state every
		// uninterrupted run has — otherwise the capture's early probe
		// release would perturb the parent-side interleaving of the
		// continuing run (DESIGN.md §10).
		a.Quiesce()
		if a.cfg.OnDecide != nil {
			a.cfg.OnDecide(at, ks)
		}
	}
}

// Loop exposes the feedback runtime (read-only use by callers).
func (a *AdaptivePlanTree) Loop() *feedback.Loop { return a.loop }

// ShedWorst evicts the buffered tuple with the lowest root-scope
// productivity score and accounts the drop with the feedback loop, so the
// run-level recall estimate reflects it. The root scope is the accounting
// layer for sheds wherever they happen: a tuple dropped at any leaf never
// reaches the root, and the root profiler's delay-productivity means are
// what estimate the complete results it would have contributed. Ties break
// toward the largest delay, then the smallest (TS, Seq), then the first
// buffer — a function of the buffered tuples alone, so shed decisions
// replay identically after a restore. Returns false when nothing is
// buffered.
func (a *AdaptivePlanTree) ShedWorst() bool {
	root := len(a.stages) - 1
	var from *kslack.Buffer
	var worst *stream.Tuple
	var worstScore float64
	for _, lf := range a.leaves {
		for e := range lf.ks.All() {
			s := a.loop.Score(root, e.Delay)
			if worst == nil || s < worstScore || (s == worstScore && kslack.ShedBefore(e, worst)) {
				from, worst, worstScore = lf.ks, e, s
			}
		}
	}
	if worst == nil {
		return false
	}
	from.Evict(worst)
	a.loop.RecordShed(root, worst.Delay)
	return true
}

// RecallEstimate exposes the loop's run-level recall estimate (produced
// over estimated-true results, shed losses included).
func (a *AdaptivePlanTree) RecallEstimate() float64 { return a.loop.RecallEstimate() }
