// Adaptation config and record routing of the adaptive tree driver
// (AdaptivePlanTree): the tree driven by the extracted feedback runtime
// (internal/feedback), closing the gap the paper's Sec. V leaves open — the
// distributed deployment there runs with a fixed buffer only.
//
// Every binary stage gets its own decision scope, modelling the binary join
// of the stage's two sub-plan inputs and fed by the stage's own
// productivity records (stage-local selectivity). All scopes decide against
// one instant requirement Γ′ derived at the ROOT scope, whose Result-Size
// Monitor window sees the final results. The decided K_j sizes the K-slack
// buffers of the raw streams entering stage j directly, so nearly ordered
// stages buy almost no latency while heavily disordered stages buy what the
// requirement needs. One common K for the whole tree (Same-K) is optimal
// only for the single MJoin operator (Theorem 1); on the tree it missed Γ in
// 49 of 108 swept configurations where per-stage K missed none (DESIGN.md
// §8), so the tree runs per-stage K only.
package dist

import (
	"repro/internal/adapt"
	"repro/internal/feedback"
	"repro/internal/stream"
)

// AdaptiveConfig configures a tree feedback loop.
type AdaptiveConfig struct {
	// Adapt carries Γ, P, L, b, g and the selectivity strategy.
	Adapt adapt.Config
	// Policy builds each scope's buffer-size policy; default is the
	// model-based quality-driven policy.
	Policy feedback.PolicyFactory
	// OnDecide optionally observes every decision (boundary time and the
	// chosen per-stage Ks; the slice is reused — copy to retain).
	OnDecide func(at stream.Time, ks []stream.Time)
}

// feedRouter routes stage productivity records into the loop: every stage
// feeds its own scope. Root-stage in-order result counts also feed the
// Result-Size Monitor: an in-order arrival's results all carry its own
// timestamp (no buffered candidate can exceed the stage watermark), so
// ObserveResult(ts, n^on) records exactly the per-result stream.
type feedRouter struct {
	loop *feedback.Loop
	root int
}

func (r *feedRouter) route(stage int, ts, delay stream.Time, nCross, nOn int64, inOrder bool) {
	if stage == r.root && inOrder && nOn > 0 {
		r.loop.ObserveResult(ts, nOn)
	}
	if inOrder {
		r.loop.RecordInOrder(stage, delay, nCross, nOn)
	} else {
		r.loop.RecordOutOfOrder(stage, delay)
	}
}
