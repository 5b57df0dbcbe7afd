// Distributed: Sec. V of the paper — the same 3-way join executed as a
// left-deep tree of binary join operators, each fronted by its own
// Synchronizer. On an asymmetric-delay feed (streams 0 and 1 nearly ordered,
// stream 2 heavily delayed) the example contrasts three deployments, all
// built with NewJoin:
//
//  1. the fixed-K tree — StaticSlack at the maximum delay: full recall at
//     maximal latency (the reference, agreeing with the single MJoin-style
//     operator);
//  2. the adaptive tree plan — the quality-driven feedback loop decides one K
//     per binary stage from that stage's two input delay profiles, so the
//     nearly ordered stage 0 pays almost no latency while stage 1 buys what
//     the recall requirement needs;
//  3. the flat operator — one Same-K for all streams, the shape for which
//     the paper proves one common K optimal (Theorem 1).
//
// The deployment shape itself belongs to the planner: AutoPlan with a low
// selectivity hint (this workload's sparse keys) picks the tree, and the
// Explain output printed first shows the chosen stages and their K decision
// scopes.
//
// See the top-level README.md for the other deployment shapes and
// DESIGN.md §8/§9 for the per-stage model and the plan layer.
package main

import (
	"fmt"

	qdhj "repro"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/stream"
)

// workload builds a 3-stream feed with sparse keys (domain 500) and
// asymmetric disorder: a tree deployment suits low-selectivity joins, and
// per-stage K pays on asymmetric delays.
func workload() (stream.Batch, *qdhj.Condition, []qdhj.Time) {
	in := gen.SparseEqui3(8000, 9, 500, [3]qdhj.Time{150, 150, 2500})
	w := 2 * qdhj.Second
	return in, qdhj.EquiChain(3, 0), []qdhj.Time{w, w, w}
}

func main() {
	arrivals, cond, windows := workload()
	maxDelay, _ := arrivals.MaxDelay()
	truth := float64(oracle.TrueResults(cond, windows, arrivals).Total())
	opt := qdhj.Options{Gamma: 0.95, Period: 20 * qdhj.Second, Interval: qdhj.Second}

	// The auto-planner picks this deployment itself: sparse keys (domain
	// 500 on ~200-tuple windows ⇒ σ ≈ 1/500) make tree intermediates cheap.
	p := qdhj.AutoPlan(cond, windows, qdhj.PlanHints{Selectivity: 1.0 / 500})
	fmt.Print(qdhj.Explain(p), "\n")

	run := func(name string, opt qdhj.Options, jopts ...qdhj.JoinOption) {
		j := qdhj.NewJoin(cond, windows, opt, jopts...)
		for _, e := range arrivals.Clone() {
			j.Push(e)
		}
		j.Close()
		fmt.Printf("%-20s %7d results  recall %.4f  avg K %5.0f ms  Ks %v\n",
			name, j.Results(), float64(j.Results())/truth, j.AvgK(), j.CurrentKs())
	}
	run("fixed-K tree", qdhj.Options{Policy: qdhj.StaticSlack, StaticK: maxDelay}, qdhj.WithPlan(p))
	run("per-stage tree", opt, qdhj.WithPlan(p))
	run("flat operator", opt)
}
