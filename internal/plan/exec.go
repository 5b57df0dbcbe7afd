package plan

// The executor seam: every deployment shape compiles through Build into the
// one adaptive shell, core.Pipeline, so the public API (and the CLI tools)
// never pick an engine directly. The shape only picks the pipeline's body:
// the flat operator, the internal/shard runtime under a Shard wrapper (or
// its networked twin), or the internal/dist plan tree. Every shape runs the
// feedback loop; a fixed K is the static policy.

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
	// Policy selects the buffer-sizing policy; PolicyStatic holds every
	// scope's K at StaticK, on flat and tree shapes alike.
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
	// address per shard (Feature.Refuse has the rules). The condition must
	// be wireable — generic predicates need an expression form (WhereExpr)
	// to cross the process boundary. Disorder handling and the feedback
	// loop stay on the driver; BatchSize doubles as the frame batch (tuple
	// messages per network write).
	Remote []string
}

// Executor is what the public API drives: the pipeline Build returns, or
// the runtime shell around one (Supervised).
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
	// Stats exposes the feedback loop's Statistics Manager.
	Stats() *stats.Manager
	// BufferedTuples returns the K-slack occupancy the ingest bound limits.
	BufferedTuples() int
	// RecallEstimate returns the loop's run-level recall estimate.
	RecallEstimate() float64
}

var _ Executor = (*core.Pipeline)(nil)

// Build compiles the graph into its executor. It panics on a deployment
// the option matrix refuses. With Remote addresses the shard runtime is
// replaced by a networked driver session (internal/net): same router, same
// merge order, workers in other processes.
func Build(g *Graph, cfg ExecConfig) *core.Pipeline {
	shards, flat := g.FlatShards()
	set := Planned | TreePlanned.If(!flat) | Remote.If(len(cfg.Remote) > 0) | Injected.If(cfg.Inject != nil)
	if r := set.Refuse(shards, len(cfg.Remote)); r != nil {
		panic("plan: " + r.Message(API))
	}
	var newRT func(shard.Config) core.Runtime
	if len(cfg.Remote) > 0 {
		if _, err := g.Cond.Wire(); err != nil {
			panic(fmt.Sprintf("plan: cannot deploy on remote workers: %v", err))
		}
		sig := Signature(g, cfg)
		addrs := append([]string(nil), cfg.Remote...)
		newRT = func(scfg shard.Config) core.Runtime {
			return net.NewSession(addrs, sig, scfg)
		}
	}
	var tree *dist.Shape
	if !flat {
		tree = distShape(g.Root)
	}
	pf, initialK := PolicyFactoryFor(cfg.Policy, cfg.StaticK)
	return core.New(core.Config{
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
		Tree:       tree,
	})
}

// PolicyFactoryFor maps the named policy to the feedback loop's policy
// factory, plus the buffer size in force before the first adaptation step
// (non-zero only for the static policy). It is the single name→policy
// mapping point: Build and the multi-query engine both construct their
// feedback loops through it, on every shape, which is what keeps a query's
// K decisions identical across the two runtimes.
func PolicyFactoryFor(p Policy, staticK stream.Time) (pf feedback.PolicyFactory, initialK stream.Time) {
	switch p {
	case PolicyMaxK:
		return feedback.MaxKPolicy(), 0
	case PolicyNoK:
		return feedback.NoKPolicy(), 0
	case PolicyStatic:
		return feedback.StaticPolicy(staticK), staticK
	default:
		return feedback.ModelPolicy(), 0
	}
}

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
