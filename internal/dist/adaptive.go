// Adaptation config and record routing of the adaptive tree driver
// (AdaptivePlanTree): the tree driven by the extracted feedback runtime
// (internal/feedback), closing the gap the paper's Sec. V leaves open — the
// distributed deployment there runs with a fixed Same-K buffer only.
//
// Two policies are offered:
//
//   - Same-K (default): ONE decision scope spanning all m raw streams,
//     exactly the MJoin pipeline's quality-driven loop; the chosen K is
//     applied to every raw-input buffer of every stage. The root stage's
//     productivity records and final-result counts feed the loop.
//
//   - Per-stage K (PerStage): one decision scope PER BINARY STAGE, modelling
//     the binary join of the stage's two sub-plan inputs and fed by the
//     stage's own productivity records (stage-local selectivity). All
//     scopes decide against one instant requirement Γ′ derived at the ROOT
//     scope, whose Result-Size Monitor window sees the final results. The
//     decided K_j sizes the K-slack buffers of the raw streams entering
//     stage j directly. Stages whose inputs are nearly ordered thus buy
//     almost no latency while heavily disordered stages buy what the
//     requirement needs — strictly less total buffered delay than Same-K on
//     asymmetric-delay inputs (see DESIGN.md §8 for where this departs from
//     Theorem 1).
package dist

import (
	"repro/internal/adapt"
	"repro/internal/feedback"
	"repro/internal/stats"
	"repro/internal/stream"
)

// AdaptiveConfig configures a tree feedback loop.
type AdaptiveConfig struct {
	// Adapt carries Γ, P, L, b, g and the selectivity strategy.
	Adapt adapt.Config
	// PerStage selects one decision scope per binary stage; default is the
	// global Same-K scope.
	PerStage bool
	// Policy builds each scope's buffer-size policy; default is the
	// model-based quality-driven policy.
	Policy feedback.PolicyFactory
	// StatsOpts customizes the Statistics Manager.
	StatsOpts []stats.Option
	// InitialK is the buffer size until the first decision.
	InitialK stream.Time
	// OnDecide optionally observes every decision (boundary time and the
	// chosen per-scope Ks; the slice is reused — copy to retain).
	OnDecide func(at stream.Time, ks []stream.Time)
}

// feedRouter routes stage productivity records into the loop. Under Same-K
// only the root stage feeds the single scope — its arrivals derive the final
// results, mirroring the MJoin operator's hook; under per-stage every stage
// feeds its own scope. Root-stage in-order result counts also feed the
// Result-Size Monitor: an in-order arrival's results all carry its own
// timestamp (no buffered candidate can exceed the stage watermark), so
// ObserveResult(ts, n^on) records exactly the per-result stream.
type feedRouter struct {
	loop     *feedback.Loop
	perStage bool
	root     int
}

func (r *feedRouter) route(stage int, ts, delay stream.Time, nCross, nOn int64, inOrder bool) {
	if stage == r.root && inOrder && nOn > 0 {
		r.loop.ObserveResult(ts, nOn)
	}
	scope := stage
	if !r.perStage {
		if stage != r.root {
			return
		}
		scope = 0
	}
	if inOrder {
		r.loop.RecordInOrder(scope, delay, nCross, nOn)
	} else {
		r.loop.RecordOutOfOrder(scope, delay)
	}
}
