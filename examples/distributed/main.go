// Distributed: Sec. V of the paper — the same 3-way join executed as a
// left-deep tree of binary join operators, each fronted by its own
// Synchronizer. The example contrasts the tree's buffer-sizing modes on an
// asymmetric-delay feed (streams 0 and 1 nearly ordered, stream 2 heavily
// delayed):
//
//  1. fixed-K at the maximum delay — full recall, maximal latency (the
//     reference, agreeing with the single MJoin-style operator);
//  2. Same-K adaptation — the quality-driven feedback loop decides ONE K
//     for all streams, as the single operator does;
//  3. per-stage adaptation (WithPerStageK) — every binary stage sizes its
//     own buffer from its two input delay profiles, so the nearly-ordered
//     stage 0 pays almost no latency while stage 1 buys what the recall
//     requirement needs: the same quality at roughly half the total
//     buffered delay.
//
// The deployment shape itself belongs to the planner: AutoPlan with a low
// selectivity hint (this workload's sparse keys) picks the tree, and the
// Explain output printed first shows the chosen stages and their K decision
// scopes — the example no longer hard-codes a choice the planner owns.
//
// See the top-level README.md for the other deployment shapes and
// DESIGN.md §8/§9 for the per-stage model and the plan layer.
package main

import (
	"fmt"

	qdhj "repro"
	"repro/internal/gen"
	"repro/internal/stream"
)

// workload builds a 3-stream feed with sparse keys (domain 500) and
// asymmetric disorder: a tree deployment suits low-selectivity joins, and
// per-stage K exists for asymmetric delays.
func workload() (stream.Batch, *qdhj.Condition, []qdhj.Time) {
	in := gen.SparseEqui3(8000, 9, 500, [3]qdhj.Time{150, 150, 2500})
	w := 2 * qdhj.Second
	return in, qdhj.EquiChain(3, 0), []qdhj.Time{w, w, w}
}

func main() {
	arrivals, cond, windows := workload()
	maxDelay, _ := arrivals.MaxDelay()
	opt := qdhj.Options{Gamma: 0.95, Period: 20 * qdhj.Second, Interval: qdhj.Second}

	// The auto-planner picks this deployment itself: sparse keys (domain
	// 500 on ~200-tuple windows ⇒ σ ≈ 1/500) make tree intermediates cheap.
	p := qdhj.AutoPlan(cond, windows, qdhj.PlanHints{Selectivity: 1.0 / 500})
	fmt.Print(qdhj.Explain(p), "\n")

	run := func(initialK qdhj.Time, opts ...qdhj.TreeOption) *qdhj.TreeJoin {
		j := qdhj.NewTreeJoin(cond, windows, initialK, nil, opts...)
		for _, e := range arrivals.Clone() {
			j.Push(e)
		}
		j.Close()
		return j
	}

	fixed := run(maxDelay)
	same := run(0, qdhj.WithTreeAdaptation(opt))
	per := run(0, qdhj.WithTreeAdaptation(opt), qdhj.WithPerStageK())

	full := float64(fixed.Results())
	fmt.Printf("fixed-K (%v, %d ops):  %8d results (reference)\n",
		maxDelay, fixed.Operators(), fixed.Results())
	fmt.Printf("Same-K adaptive:           %8d results (%.2f%% of full)  ΣK=%7.0fs\n",
		same.Results(), 100*float64(same.Results())/full, same.BufferedDelaySum()/1000)
	fmt.Printf("per-stage adaptive:        %8d results (%.2f%% of full)  ΣK=%7.0fs  Ks=%v\n",
		per.Results(), 100*float64(per.Results())/full, per.BufferedDelaySum()/1000, per.CurrentKs())
}
