package plan

// The executor seam: every deployment shape compiles through Build into one
// Executor interface, so the public API (and the CLI tools) never pick an
// engine directly. Flat shapes — with or without a Shard wrapper — compile
// to the core pipeline (which in turn hosts the internal/shard runtime);
// tree shapes compile to the internal/dist plan-tree engine, static or
// adaptive.

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/net"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Policy names the buffer-sizing policy, mirroring the public qdhj.Policy.
type Policy int

// Policies.
const (
	PolicyModel Policy = iota
	PolicyMaxK
	PolicyNoK
	PolicyStatic
)

// ExecConfig assembles an executor from a graph.
type ExecConfig struct {
	// Adapt carries Γ, P, L, b, g and the selectivity strategy.
	Adapt adapt.Config
	// Policy selects the buffer-sizing policy; PolicyStatic runs tree
	// shapes without a feedback loop at the fixed StaticK.
	Policy  Policy
	StaticK stream.Time
	// Emit optionally receives every produced result.
	Emit join.EmitFunc
	// EmitCounts optionally receives per-arrival result counts. Tree
	// executors materialize results anyway and report one count per result.
	EmitCounts join.CountEmitFunc
	// OnAdapt optionally observes adaptation steps. On tree shapes PrevK
	// and NewK report the maximum over the per-stage Ks, and GammaPrime the
	// Γ′ derived at the root.
	OnAdapt func(core.AdaptEvent)
	// BatchSize tunes the flat sharded runtime (0 = default).
	BatchSize int
	// Inject optionally arms the deterministic fault injector on the built
	// executor's workers (and, on worker-less shapes, its driver thread).
	Inject *fault.Injector
	// Remote runs the flat shape on networked qdhjd worker processes, one
	// address per shard (the graph's shard count must match, or be flat
	// with one address). The condition must be wireable — generic
	// predicates need an expression form (WhereExpr) to cross the process
	// boundary. Disorder handling and the feedback loop stay on the
	// driver; BatchSize doubles as the frame batch (tuple messages per
	// network write). Tree shapes do not support remote execution.
	Remote []string
}

// Executor is the one interface all deployment shapes execute behind.
type Executor interface {
	Push(*stream.Tuple)
	Finish()
	Results() int64
	// CurrentKs returns the most recent buffer-size decision, one entry per
	// decision scope (a single entry on flat shapes).
	CurrentKs() []stream.Time
	// AvgK returns the average over adaptation steps of the largest
	// per-scope K — the latency bound the deployment adds.
	AvgK() float64
	Adaptations() int64
	// SetEmit installs a result callback before the first Push.
	SetEmit(join.EmitFunc)
	// Stats exposes the Statistics Manager, or nil on static tree shapes
	// (which run no feedback loop).
	Stats() *stats.Manager
}

// Build compiles the graph into its executor.
func Build(g *Graph, cfg ExecConfig) Executor {
	if shards, flat := g.FlatShards(); flat {
		return buildFlat(g, cfg, shards)
	}
	if len(cfg.Remote) > 0 {
		panic("plan: remote workers execute only flat shapes — tree stages own window state the driver cannot retain for checkpointing; plan a flat or sharded-flat shape")
	}
	return buildTree(g, cfg)
}

// PolicyFactoryFor maps the named policy to the core policy factory the
// flat pipeline runs, plus the buffer size in force before the first
// adaptation step (non-zero only for the static policy). It is the single
// name→policy mapping point for flat execution: buildFlat and the
// multi-query engine both construct their feedback loops through it, which
// is what keeps a query's K decisions identical across the two runtimes.
func PolicyFactoryFor(p Policy, staticK stream.Time) (pf core.PolicyFactory, initialK stream.Time) {
	switch p {
	case PolicyMaxK:
		return core.MaxKPolicy(), 0
	case PolicyNoK:
		return core.NoKPolicy(), 0
	case PolicyStatic:
		return core.StaticPolicy(staticK), staticK
	default:
		return core.ModelPolicy(), 0
	}
}

// buildFlat maps the (possibly sharded) flat shape onto the core pipeline.
// With Remote addresses the shard runtime is replaced by a networked
// driver session (internal/net): same router, same merge order, workers in
// other processes.
func buildFlat(g *Graph, cfg ExecConfig, shards int) Executor {
	var newRT func(shard.Config) core.Runtime
	if len(cfg.Remote) > 0 {
		if shards > 0 && shards != len(cfg.Remote) {
			panic(fmt.Sprintf("plan: the graph shards %d ways but %d remote worker addresses were given — one address per shard", shards, len(cfg.Remote)))
		}
		if _, err := g.Cond.Wire(); err != nil {
			panic(fmt.Sprintf("plan: cannot deploy on remote workers: %v", err))
		}
		sig := Signature(g, cfg)
		addrs := append([]string(nil), cfg.Remote...)
		newRT = func(scfg shard.Config) core.Runtime {
			return net.NewSession(addrs, sig, scfg)
		}
	}
	pf, initialK := PolicyFactoryFor(cfg.Policy, cfg.StaticK)
	p := core.New(core.Config{
		InitialK:   initialK,
		Windows:    g.Windows,
		Cond:       g.Cond,
		Adapt:      cfg.Adapt,
		Policy:     pf,
		Emit:       cfg.Emit,
		EmitCounts: cfg.EmitCounts,
		OnAdapt:    cfg.OnAdapt,
		Sharding:   core.Sharding{Shards: shards, BatchSize: cfg.BatchSize},
		Inject:     cfg.Inject,
		NewRuntime: newRT,
	})
	return (*flatExec)(p)
}

// flatExec adapts *core.Pipeline to the Executor interface.
type flatExec core.Pipeline

func (e *flatExec) p() *core.Pipeline        { return (*core.Pipeline)(e) }
func (e *flatExec) Push(t *stream.Tuple)     { e.p().Push(t) }
func (e *flatExec) Finish()                  { e.p().Finish() }
func (e *flatExec) Results() int64           { return e.p().Results() }
func (e *flatExec) CurrentKs() []stream.Time { return []stream.Time{e.p().CurrentK()} }
func (e *flatExec) AvgK() float64            { return e.p().AvgK() }
func (e *flatExec) Adaptations() int64       { return e.p().Adaptations() }
func (e *flatExec) SetEmit(f join.EmitFunc)  { e.p().SetEmit(f) }
func (e *flatExec) Stats() *stats.Manager    { return e.p().Stats() }
func (e *flatExec) BufferedTuples() int      { return e.p().BufferedTuples() }
func (e *flatExec) ShedWorst() bool          { return e.p().ShedWorst() }
func (e *flatExec) RecallEstimate() float64  { return e.p().RecallEstimate() }

// distShape converts the plan nodes into the dist engine's shape
// description. Flat nodes inside trees are not executable (the planner
// never emits them there).
func distShape(n Node) *dist.Shape {
	switch t := n.(type) {
	case Leaf:
		return &dist.Shape{Stream: t.Stream}
	case Stage:
		return &dist.Shape{Left: distShape(t.Left), Right: distShape(t.Right)}
	case Shard:
		sh := distShape(t.Child)
		sh.Shards = t.N
		return sh
	default:
		panic(fmt.Sprintf("plan: node %T is not executable inside a tree shape", n))
	}
}

// buildTree maps a tree shape onto the dist plan-tree engine.
func buildTree(g *Graph, cfg ExecConfig) Executor {
	shape := distShape(g.Root)
	e := &treeExec{emit: cfg.Emit, counts: cfg.EmitCounts, onAdapt: cfg.OnAdapt}
	sink := func(p dist.Partial) {
		if e.emit != nil {
			e.emit(stream.NewResult(p.Parts))
		}
		if e.counts != nil {
			e.counts(p.TS, 1)
		}
	}
	if cfg.Policy == PolicyStatic {
		e.t = dist.NewPlanTree(g.Cond, g.Windows, shape, cfg.StaticK, sink)
		e.t.SetInjector(cfg.Inject)
		e.staticK = cfg.StaticK
		return e
	}
	var pf feedback.PolicyFactory
	switch cfg.Policy {
	case PolicyMaxK:
		pf = feedback.MaxKPolicy()
	case PolicyNoK:
		pf = feedback.NoKPolicy()
	default:
		pf = feedback.ModelPolicy()
	}
	acfg := dist.AdaptiveConfig{Adapt: cfg.Adapt, Policy: pf}
	if cfg.OnAdapt != nil {
		acfg.OnDecide = e.onDecide
	}
	e.at = dist.NewAdaptivePlanTree(g.Cond, g.Windows, shape, acfg, sink)
	e.at.SetInjector(cfg.Inject)
	return e
}

// treeExec adapts the dist plan-tree engine to the Executor interface.
type treeExec struct {
	t  *dist.PlanTree
	at *dist.AdaptivePlanTree

	emit    join.EmitFunc
	counts  join.CountEmitFunc
	onAdapt func(core.AdaptEvent)
	staticK stream.Time
	prevMax stream.Time
	pushed  bool
}

func (e *treeExec) tree() *dist.PlanTree {
	if e.at != nil {
		return e.at.Tree()
	}
	return e.t
}

func (e *treeExec) Push(t *stream.Tuple) {
	e.pushed = true
	if e.at != nil {
		e.at.Push(t)
		return
	}
	e.t.Push(t)
}

func (e *treeExec) Finish() {
	if e.at != nil {
		e.at.Finish()
		return
	}
	e.t.Finish()
}

func (e *treeExec) Results() int64 { return e.tree().Results() }

func (e *treeExec) CurrentKs() []stream.Time {
	if e.at == nil {
		return []stream.Time{e.staticK}
	}
	return e.at.Loop().Ks()
}

func (e *treeExec) AvgK() float64 {
	if e.at == nil {
		return float64(e.staticK)
	}
	loop := e.at.Loop()
	var max float64
	for i := 0; i < loop.Scopes(); i++ {
		if v := loop.AvgK(i); v > max {
			max = v
		}
	}
	return max
}

func (e *treeExec) Adaptations() int64 {
	if e.at == nil {
		return 0
	}
	return e.at.Loop().Decisions()
}

func (e *treeExec) SetEmit(f join.EmitFunc) {
	if e.pushed {
		panic("plan: SetEmit after the tree run has started — results produced so far were not delivered; install the sink before the first Push")
	}
	e.emit = f
}

func (e *treeExec) Stats() *stats.Manager {
	if e.at == nil {
		return nil
	}
	return e.at.Loop().Stats()
}

// onDecide adapts per-stage decisions to the flat OnAdapt hook: the K
// reported is the largest per-stage K, the latency bound of the deployment,
// and Γ′ is the requirement derived at the root, which every stage's target
// decomposes.
func (e *treeExec) onDecide(at stream.Time, ks []stream.Time) {
	var max stream.Time
	for _, k := range ks {
		if k > max {
			max = k
		}
	}
	ev := core.AdaptEvent{Now: at, OutT: e.tree().Watermark(), PrevK: e.prevMax, NewK: max,
		GammaPrime: e.at.Loop().GammaPrime()}
	e.prevMax = max
	e.onAdapt(ev)
}

func (e *treeExec) BufferedTuples() int { return e.tree().BufferedTuples() }

func (e *treeExec) ShedWorst() bool {
	if e.at != nil {
		return e.at.ShedWorst()
	}
	return e.t.ShedWorst()
}

// RecallEstimate reports the loop's run-level estimate; a static tree runs
// no loop and no recall accounting, so it reports 1.
func (e *treeExec) RecallEstimate() float64 {
	if e.at == nil {
		return 1
	}
	return e.at.RecallEstimate()
}
