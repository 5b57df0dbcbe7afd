package qdhj

// The public face of the deployment planner (internal/plan): one plan
// graph describes how a logical join deploys — the flat MJoin-style
// operator, key-partitioned shards, binary trees (left-deep or bushy), and
// stage-wise sharding compose as nodes of one graph — and every Join
// executes behind the same seam, whichever shape was chosen.

import (
	"fmt"

	"repro/internal/plan"
)

// Plan is one deployment plan: the condition, the windows, and the chosen
// shape. Build one with AutoPlan (cost-model default), ParsePlan (explicit
// spec), and execute it with NewJoin(..., WithPlan(p)).
type Plan struct {
	g *plan.Graph
}

// PlanHints carries the resource and statistics hints the auto-planner's
// cost model consumes. The zero value means "single-threaded, nothing
// known" and always plans the flat operator.
type PlanHints struct {
	// Shards is the parallel worker budget. With a budget, a condition
	// whose key class covers every stream shards the flat operator; a
	// condition without one (the x4 star) deploys as a binary tree with
	// every stage sharded on its own cross key — no broadcast route.
	Shards int
	// Selectivity estimates the fraction of candidate pairs satisfying one
	// join predicate (0 = unknown). Low values make tree shapes with
	// materialized intermediates affordable, the regime where per-stage K
	// pays (DESIGN.md §8/§9).
	Selectivity float64
	// Rates optionally gives per-stream arrival rates in tuples per
	// millisecond; see (*Join).Snapshot().Streams[i].Rate for measuring
	// them on a running join.
	Rates []float64
}

// AutoPlan analyzes the condition and picks the default deployment shape
// for the given hints; see the package documentation of internal/plan for
// the decision procedure. Like compiling the condition into an operator,
// planning seals it against further mutation.
func AutoPlan(cond *Condition, windows []Time, h PlanHints) *Plan {
	return &Plan{g: plan.Auto(cond, windows, plan.Hints{
		Shards:      h.Shards,
		Selectivity: h.Selectivity,
		Rates:       h.Rates,
	})}
}

// AutoPlanFrom is AutoPlan with measured statistics layered over the
// hints: the snapshot's per-stream rates and per-edge selectivities —
// typically a running join's (*Join).Snapshot() — override the hinted
// values where present. This is the offline half of online re-planning:
// measure on a live join, re-plan from the measurement, redeploy; see
// WithOnlineReplan for the fully automatic loop.
func AutoPlanFrom(cond *Condition, windows []Time, h PlanHints, snap StatsSnapshot) *Plan {
	ms := plan.Measured{}
	if len(snap.Streams) == len(windows) {
		ms.Rates = make([]float64, len(snap.Streams))
		for i, s := range snap.Streams {
			ms.Rates[i] = s.Rate
		}
	}
	for _, e := range snap.Edges {
		ms.Edges = append(ms.Edges, plan.EdgeSigma{Left: e.Left, Right: e.Right, Sigma: e.Selectivity})
	}
	return &Plan{g: plan.AutoMeasured(cond, windows, plan.Hints{
		Shards:      h.Shards,
		Selectivity: h.Selectivity,
		Rates:       h.Rates,
	}, &ms)}
}

// ParsePlan compiles a textual plan spec: "auto", "flat", "shard[:N]",
// "tree", "tree-shard[:N]", or an explicit shape s-expression such as
// "((0 1)x4 2)x4" (a xN suffix shards that stage). shards is the budget
// the named forms use when the spec carries no explicit count.
func ParsePlan(spec string, cond *Condition, windows []Time, shards int) (*Plan, error) {
	g, err := plan.ParseSpec(spec, cond, windows, shards)
	if err != nil {
		return nil, err
	}
	return &Plan{g: g}, nil
}

// Explain renders the plan graph: the shape, every shard node's route, and
// the per-stage K decision scopes of tree shapes.
func (p *Plan) Explain() string { return p.g.Explain() }

// Explain renders a plan graph; see (*Plan).Explain.
func Explain(p *Plan) string { return p.Explain() }

// WithPlan deploys the join as the given plan. The plan must have been
// built for the same condition and windows passed to NewJoin. The plan
// fixes the shape and the shard count, so WithShards and WithAutoPlan are
// refused beside it, as is WithRemoteWorkers beside a tree plan.
func WithPlan(p *Plan) JoinOption {
	return func(o *joinOpts) { o.plan = p }
}

// WithAutoPlan lets the planner pick the deployment shape, using the
// WithShards value (if any) as the parallelism budget. Where plain
// WithShards always runs the flat sharded operator — broadcasting when the
// condition has no full key class — WithAutoPlan upgrades such conditions
// to stage-wise sharding.
func WithAutoPlan() JoinOption {
	return func(o *joinOpts) { o.autoPlan = true }
}

// graphFor resolves the deployment graph of one NewJoin call.
func (o *joinOpts) graphFor(cond *Condition, windows []Time) *plan.Graph {
	if len(o.remote) > 0 && o.shards == 0 && o.plan == nil {
		// One worker address per shard: remote workers imply the sharded
		// flat shape at the address count (the planner's budget under
		// WithAutoPlan).
		o.shards = len(o.remote)
	}
	switch {
	case o.plan != nil:
		g := o.plan.g
		if g.Cond != cond {
			panic("qdhj: WithPlan plan was built for a different Condition — the compiled routes and scopes would not match; plan the same condition value you pass to NewJoin")
		}
		if len(g.Windows) != len(windows) {
			panic("qdhj: WithPlan plan window count differs from NewJoin's")
		}
		for i := range windows {
			if g.Windows[i] != windows[i] {
				panic(fmt.Sprintf("qdhj: WithPlan plan window %d = %v differs from NewJoin's %v", i, g.Windows[i], windows[i]))
			}
		}
		return g
	case o.autoPlan:
		return plan.Auto(cond, windows, plan.Hints{Shards: o.shards})
	case o.shards > 1:
		return plan.ShardedFlat(cond, windows, o.shards)
	default:
		return plan.FlatGraph(cond, windows)
	}
}
