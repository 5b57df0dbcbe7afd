package qdhj

import (
	"repro/internal/adapt"
	"repro/internal/dist"
	"repro/internal/feedback"
)

// TreeJoin is an m-way join executed as a left-deep tree of binary join
// operators, each fronted by its own Synchronizer — the distributed MSWJ
// deployment shape of Sec. V of the paper. It shares the join condition
// model and the K-slack disorder handling with Join, but trades the single
// MJoin-style operator for composable binary stages.
//
// By default the buffers stay at the fixed size k. WithTreeAdaptation puts
// the quality-driven feedback loop in charge instead (k then only seeds the
// buffers until the first decision): one global Same-K decision exactly
// like Join's, or — with WithPerStageK — one K per binary stage, chosen
// from that stage's two input delay profiles and stage-local selectivity
// against the recall requirement derived at the tree root.
type TreeJoin struct {
	t  *dist.PlanTree         // the executor (at.Tree() on an adaptive run)
	at *dist.AdaptivePlanTree // adaptive run only
}

// TreeResult is one result of a TreeJoin: the constituent tuples in stream
// order, the result timestamp, and the delay annotation of the tuple whose
// arrival produced it.
//
// A TreeResult handed to emit is the callee's to keep, under the same
// contract as Result.Tuples: Tuples is never reused or overwritten by the
// join. It is capacity-clipped (len == cap), so appending to it copies, and
// it may share a backing block of at most 512 bytes with neighbouring
// results — retaining one result keeps that block, and the tuples of the
// results carved beside it, reachable.
type TreeResult struct {
	TS     Time
	Delay  Time
	Tuples []*Tuple
}

// TreeOption configures the optional adaptation of a TreeJoin.
type TreeOption func(*treeOpts)

type treeOpts struct {
	adapt    *Options
	perStage bool
	onDecide func(at Time, ks []Time)
}

// WithTreeAdaptation enables the quality-driven feedback loop on the tree:
// buffer sizes are re-decided every adaptation interval from the recall
// requirement opt.Gamma, exactly as Join does for the single operator. The
// zero Options value gives the paper's defaults (Γ = 0.95, P = 1 min,
// L = 1 s, NonEqSel). Options.Policy selects the buffer-sizing policy;
// StaticSlack is rejected — build the tree without adaptation instead.
func WithTreeAdaptation(opt Options) TreeOption {
	return func(o *treeOpts) { o.adapt = &opt }
}

// WithPerStageK gives every binary tree stage its own decision scope: stage
// j's K is chosen from the delay profiles of its two inputs (the merged
// left-subtree streams and raw stream j+1) and the stage-local selectivity
// snapshot, against the instant requirement Γ′ derived at the tree root.
// On asymmetric-delay inputs this buys strictly less total buffered delay
// than the global Same-K for the same recall target (DESIGN.md §8).
// Implies WithTreeAdaptation with default Options unless one is given.
func WithPerStageK() TreeOption {
	return func(o *treeOpts) {
		o.perStage = true
		if o.adapt == nil {
			o.adapt = &Options{}
		}
	}
}

// WithTreeDecideHook registers a callback observing every adaptation
// decision: the boundary time and the chosen K per decision scope (one
// entry under Same-K, one per stage under WithPerStageK; the slice is
// reused — copy to retain).
func WithTreeDecideHook(f func(at Time, ks []Time)) TreeOption {
	return func(o *treeOpts) { o.onDecide = f }
}

// validate rejects option sets that would silently do nothing.
func (o *treeOpts) validate() {
	if o.onDecide != nil && o.adapt == nil {
		panic("qdhj: WithTreeDecideHook without WithTreeAdaptation/WithPerStageK — no decisions will ever fire; enable adaptation or drop the hook")
	}
}

// adaptiveConfig maps the qdhj Options onto the dist adaptation config.
func (o *treeOpts) adaptiveConfig(initialK Time) dist.AdaptiveConfig {
	opt := *o.adapt
	var pf feedback.PolicyFactory
	switch opt.Policy {
	case MaxSlack:
		pf = feedback.MaxKPolicy()
	case NoSlack:
		pf = feedback.NoKPolicy()
	case StaticSlack:
		panic("qdhj: WithTreeAdaptation with the StaticSlack policy — a static buffer needs no feedback loop; build the tree without WithTreeAdaptation and pass the buffer size as k")
	default:
		pf = feedback.ModelPolicy()
	}
	return dist.AdaptiveConfig{
		Adapt: adapt.Config{
			Gamma:    opt.gamma(),
			P:        opt.Period,
			L:        opt.Interval,
			B:        opt.BasicWindow,
			G:        opt.Granularity,
			Strategy: opt.Strategy,
			Search:   opt.Search,
		},
		PerStage: o.perStage,
		Policy:   pf,
		InitialK: initialK,
		OnDecide: o.onDecide,
	}
}

// NewTreeJoin creates the binary-tree join with the common buffer size k on
// every input stream — fixed for the whole run unless a WithTreeAdaptation
// or WithPerStageK option enables the feedback loop.
//
// The deployment shape is the plan layer's left-deep spine; for bushy
// shapes or stage-wise sharding, plan explicitly and run through
// NewJoin(..., WithPlan(p)).
func NewTreeJoin(cond *Condition, windows []Time, k Time, emit func(TreeResult), opts ...TreeOption) *TreeJoin {
	var o treeOpts
	for _, op := range opts {
		op(&o)
	}
	o.validate()
	var sink func(dist.Partial)
	if emit != nil {
		sink = func(p dist.Partial) {
			emit(TreeResult{TS: p.TS, Delay: p.Delay, Tuples: p.Parts})
		}
	}
	shape := dist.Spine(len(windows))
	if o.adapt != nil {
		at := dist.NewAdaptivePlanTree(cond, windows, shape, o.adaptiveConfig(k), sink)
		return &TreeJoin{t: at.Tree(), at: at}
	}
	return &TreeJoin{t: dist.NewPlanTree(cond, windows, shape, k, sink)}
}

// Push feeds a raw arrival. Pushing into a closed tree panics.
func (j *TreeJoin) Push(t *Tuple) {
	if j.at != nil {
		j.at.Push(t)
		return
	}
	j.t.Push(t)
}

// SetK changes the common buffer size on all streams. On an adaptive tree
// the feedback loop overrides it at the next interval boundary.
func (j *TreeJoin) SetK(k Time) { j.t.SetK(k) }

// Close flushes all buffers at end of input. Closing twice panics, as does
// pushing afterwards.
func (j *TreeJoin) Close() { j.t.Finish() }

// Results returns the number of results produced so far.
func (j *TreeJoin) Results() int64 { return j.t.Results() }

// Operators returns the number of binary join operators in the tree.
func (j *TreeJoin) Operators() int { return j.t.Operators() }

// Adaptations returns the number of buffer-size decisions taken (0 without
// adaptation).
func (j *TreeJoin) Adaptations() int64 {
	if j.at == nil {
		return 0
	}
	return j.at.Loop().Decisions()
}

// CurrentKs returns the most recent buffer-size decision, one entry per
// decision scope: a single global K under Same-K adaptation, K_j per stage
// under WithPerStageK, nil without adaptation. The slice is live; copy to
// retain.
func (j *TreeJoin) CurrentKs() []Time {
	if j.at == nil {
		return nil
	}
	return j.at.Loop().Ks()
}

// BufferedDelaySum returns the aggregate buffered delay the run paid:
// Σ over adaptation intervals of Σ over the m raw-input buffers of the
// applied K. Per-stage adaptation exists to shrink it (0 without
// adaptation).
func (j *TreeJoin) BufferedDelaySum() float64 {
	if j.at == nil {
		return 0
	}
	return j.at.BufferedDelaySum()
}
