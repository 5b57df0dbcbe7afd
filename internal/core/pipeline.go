// Package core wires the quality-driven disorder handling framework of
// Fig. 2: one K-slack component per input stream, the join body behind
// them, and the feedback loop — extracted into internal/feedback — that
// re-decides the buffer sizes every L time units. It is the one adaptive
// shell of every deployment shape. On flat shapes the body is a
// Synchronizer merging the K-slack outputs into the MSWJ operator (in
// process, or on a sharded Runtime) and the loop decides one global Same-K;
// on tree shapes the body is a plan tree of binary stages (internal/dist,
// Sec. V), each fronted by its own Synchronizer, and the loop decides one K
// per stage for the raw streams entering it. The pipeline is a thin client
// of the loop: it feeds arrivals, productivity records and result counts
// in, and applies each scope's K to the K-slack buffers of its streams at
// every interval boundary.
//
// The pipeline is push-based and driven entirely by logical time (tuple
// timestamps), so runs are deterministic and replay far faster than real
// time. Push runs on the caller's goroutine; the only concurrency is the
// shard workers (internal/shard, internal/net over TCP, or a tree's sharded
// stages) and the async statistics feeder of the flat sharded path, all
// synchronized at every adaptation boundary.
package core

import (
	"repro/internal/adapt"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/syncer"
)

// Sharding configures the parallel execution path: the join operator runs
// as Shards key-partitioned workers (internal/shard) while disorder
// handling and the feedback loop stay global, so the sharded run produces
// exactly the single-shard result multiset. Shards ≤ 1 selects the
// classic single-threaded path.
type Sharding struct {
	// Shards is the number of partition workers.
	Shards int
	// BatchSize tunes the inter-thread queues (0 = default).
	BatchSize int
}

// Runtime is the sharded execution seam: what the pipeline needs from a
// partition-parallel join runtime. internal/shard.Runtime implements it
// in-process; internal/net.Session implements it over TCP worker
// processes. Both embed the same router, so the pipeline cannot observe
// which one it is driving.
type Runtime interface {
	// Route accepts one synchronized tuple (single-goroutine).
	Route(e *stream.Tuple)
	// Watermark returns the global synchronized-stream watermark onT.
	Watermark() stream.Time
	// FlushInterval quiesces the workers and merges one interval in
	// deterministic (arrival, shard) order; a worker failure panics before
	// anything is emitted.
	FlushInterval(visit func(ts, delay stream.Time, nCross, nOn int64), emit func(stream.Result))
	// EnableMaterialize installs result buffers before the first Route.
	EnableMaterialize()
	// State and Restore capture/load the runtime's serializable snapshot.
	State(tt *fault.TupleTable) shard.State
	Restore(st shard.State, ta *fault.TupleArena)
	// Close stops the workers after a final FlushInterval.
	Close()
}

// PolicyFactory, ModelPolicy, NoKPolicy, MaxKPolicy and StaticPolicy are
// the feedback loop's policy factories under their historical core names;
// plan.PolicyFactoryFor is the one place a policy name maps to a factory.
type PolicyFactory = feedback.PolicyFactory

var (
	ModelPolicy  = feedback.ModelPolicy
	NoKPolicy    = feedback.NoKPolicy
	MaxKPolicy   = feedback.MaxKPolicy
	StaticPolicy = feedback.StaticPolicy
)

// FeedbackPolicy returns pf: core and feedback share one factory type.
func FeedbackPolicy(pf PolicyFactory) feedback.PolicyFactory { return pf }

// AdaptEvent describes one adaptation step; it is delivered to the OnAdapt
// hook right after the new K has been decided and applied.
type AdaptEvent struct {
	Now        stream.Time // logical input time of the step (interval boundary)
	OutT       stream.Time // join operator watermark onT: the output progress
	PrevK      stream.Time // buffer size during the interval that just ended
	NewK       stream.Time // buffer size for the next interval
	GammaPrime float64     // instant requirement used (model policy only; on tree plans the root's)
}

// Config assembles a pipeline.
type Config struct {
	// Windows holds the per-stream window sizes W_i; its length fixes m.
	Windows []stream.Time
	// Cond is the join condition; Cond.M must equal len(Windows).
	Cond *join.Condition
	// Adapt carries Γ, P, L, b, g and the selectivity strategy.
	Adapt adapt.Config
	// Policy builds each decision scope's buffer-size policy; default is
	// ModelPolicy.
	Policy PolicyFactory
	// StatsOpts customizes the Statistics Manager (fixed history ablation…).
	StatsOpts []stats.Option
	// Emit optionally receives every produced join result. Leaving it nil
	// enables the join operator's counting-only fast path, which matters for
	// high-selectivity equi workloads.
	Emit join.EmitFunc
	// EmitCounts optionally receives per-arrival result counts (always
	// cheap; the Result-Size Monitor uses the same channel internally). A
	// tree materializes its results anyway and reports one count per result.
	EmitCounts join.CountEmitFunc
	// OnAdapt optionally observes every adaptation step. On trees PrevK and
	// NewK report the largest per-stage K, OutT the root watermark after
	// the new Ks released what they release.
	OnAdapt func(AdaptEvent)
	// InitialK is the buffer size before the first adaptation step.
	InitialK stream.Time
	// Sharding enables the partition-parallel execution path.
	Sharding Sharding
	// NewRuntime optionally overrides the sharded runtime constructor — the
	// seam through which plan injects the networked worker runtime
	// (internal/net). When set, the runtime path is used even at one shard.
	NewRuntime func(shard.Config) Runtime
	// Tree, when set, runs the join as this binary plan tree instead of the
	// flat operator: one decision scope per stage, all deciding against one
	// Γ′ derived at the root (DESIGN §8). The tree shards its own stages;
	// Sharding and NewRuntime do not apply.
	Tree *dist.Shape
	// Inject is the optional fault-injection harness: sharded runs hand it
	// to their workers (worker s checks directives for worker s); a run
	// without worker goroutines checks worker 0's directives at every Push.
	Inject *fault.Injector
}

// Pipeline is the assembled framework.
type Pipeline struct {
	cfg  Config
	m    int
	loop *feedback.Loop
	ks   []*kslack.Buffer
	// leaves[j] lists the streams whose buffers scope j's K sizes, in the
	// order a decision applies them: every stream under the one flat scope.
	leaves [][]int

	// The body behind the K-slack buffers: a Synchronizer feeding op, or rt
	// on the sharded path, where the loop runs its Statistics Manager
	// asynchronously, barriered before every decision; or a plan tree.
	sync *syncer.Synchronizer
	op   *join.Operator
	rt   Runtime
	tree *dist.PlanTree

	faultsAtPush bool // no worker goroutines: injected faults fire in Push

	finished bool
	curK     stream.Time // the largest per-scope K in force

	results int64
	pushed  int64
}

// New assembles a pipeline from cfg.
func New(cfg Config) *Pipeline {
	if cfg.Cond == nil || len(cfg.Windows) != cfg.Cond.M {
		panic("core: condition arity must match window count")
	}
	if cfg.Policy == nil {
		cfg.Policy = ModelPolicy()
	}
	cfg.Adapt = cfg.Adapt.Normalize()
	m := len(cfg.Windows)

	p := &Pipeline{cfg: cfg, m: m, curK: cfg.InitialK}
	lcfg := feedback.Config{
		Windows:    cfg.Windows,
		Adapt:      cfg.Adapt,
		Policy:     cfg.Policy,
		StatsOpts:  cfg.StatsOpts,
		InitialK:   cfg.InitialK,
		AsyncBatch: cfg.Sharding.BatchSize,
	}
	switch {
	case cfg.Tree != nil:
		p.tree = dist.NewPlanTree(cfg.Cond, cfg.Windows, cfg.Tree, p.onTreeResult)
		p.tree.SetProdHook(p.onStage)
		p.tree.SetInjector(cfg.Inject)
		lcfg.Scopes, lcfg.ScopeWeights, p.leaves = p.tree.Scopes()
	case cfg.Sharding.Shards > 1 || cfg.NewRuntime != nil:
		scfg := shard.Config{
			N:           max(cfg.Sharding.Shards, 1),
			Cond:        cfg.Cond,
			Windows:     cfg.Windows,
			Materialize: cfg.Emit != nil,
			BatchSize:   cfg.Sharding.BatchSize,
			OnOutOfOrder: func(delay stream.Time) {
				p.loop.RecordOutOfOrder(0, delay)
			},
			Inject: cfg.Inject,
		}
		if cfg.NewRuntime != nil {
			p.rt = cfg.NewRuntime(scfg)
		} else {
			p.rt = shard.New(scfg)
		}
		p.sync = syncer.New(m, p.rt.Route)
		lcfg.Async = true
	default:
		opts := []join.Option{
			join.WithProcessedHook(p.onProcessed),
			join.WithCountEmit(p.onResultCount),
		}
		if cfg.Emit != nil {
			opts = append(opts, join.WithEmit(cfg.Emit))
		}
		p.op = join.New(cfg.Cond, cfg.Windows, opts...)
		p.sync = syncer.New(m, p.op.Process)
	}
	p.loop = feedback.New(lcfg)
	p.faultsAtPush = p.rt == nil && (p.tree == nil || !p.tree.Sharded())
	p.ks = make([]*kslack.Buffer, m)
	all := make([]int, m)
	for i := range p.ks {
		if p.tree != nil {
			p.ks[i] = kslack.New(cfg.InitialK, p.tree.Input(i))
		} else {
			p.ks[i] = kslack.New(cfg.InitialK, p.sync.Push)
		}
		all[i] = i
	}
	if p.leaves == nil {
		p.leaves = [][]int{all}
	}
	return p
}

// onResultCount feeds per-arrival result counts to the loop's Result-Size
// Monitor and the caller's optional count sink.
func (p *Pipeline) onResultCount(ts stream.Time, n int64) {
	p.results += n
	p.loop.ObserveResult(ts, n)
	if p.cfg.EmitCounts != nil {
		p.cfg.EmitCounts(ts, n)
	}
}

// onProcessed is the join operator's productivity hook (line 11, Alg. 2).
func (p *Pipeline) onProcessed(e *stream.Tuple, nCross, nOn int64, inOrder bool) {
	if inOrder {
		p.loop.RecordInOrder(0, e.Delay, nCross, nOn)
	} else {
		p.loop.RecordOutOfOrder(0, e.Delay)
	}
}

// onStage is the tree's productivity hook: every stage feeds its own
// scope. Root-stage in-order result counts also feed the Result-Size
// Monitor: an in-order arrival's results all carry its own timestamp (no
// buffered candidate can exceed the stage watermark), so ObserveResult(ts,
// n^on) records exactly the per-result stream.
func (p *Pipeline) onStage(stage int, ts, delay stream.Time, nCross, nOn int64, inOrder bool) {
	if !inOrder {
		p.loop.RecordOutOfOrder(stage, delay)
		return
	}
	if stage == len(p.leaves)-1 && nOn > 0 {
		p.loop.ObserveResult(ts, nOn)
	}
	p.loop.RecordInOrder(stage, delay, nCross, nOn)
}

// onTreeResult delivers one complete tree result, borrowed as the tree
// lends it. Its TS is already the maximum of its parts (the stages' combine
// keeps it).
func (p *Pipeline) onTreeResult(r dist.Partial) {
	p.results++
	if p.cfg.Emit != nil {
		p.cfg.Emit(stream.Result{TS: r.TS, Tuples: r.Parts})
	}
	if p.cfg.EmitCounts != nil {
		p.cfg.EmitCounts(r.TS, 1)
	}
}

// Push feeds one raw arrival into the framework and runs any adaptation
// steps whose interval boundaries the arrival crossed. Pushing into a
// finished pipeline panics: the flushed buffers and stopped shard workers
// cannot be restarted, so the tuple would be silently dropped.
func (p *Pipeline) Push(e *stream.Tuple) {
	if p.finished {
		panic("core: Push on a finished pipeline — Finish flushed the buffers and a run cannot be restarted; build a new Pipeline")
	}
	if p.faultsAtPush {
		// Without worker goroutines an injected worker-0 fault fires here,
		// between tuples, which is exactly a checkpoint-consistent crash
		// point (DESIGN.md §10).
		p.cfg.Inject.MaybeDelay(0)
		p.cfg.Inject.MaybePanic(0)
	}
	p.pushed++
	now := p.loop.Observe(e)
	p.ks[e.Src].Push(e)
	if at, ok := p.loop.Boundary(now); ok {
		p.adaptStep(at)
	}
}

// adaptStep runs one Buffer-Size Manager decision at logical time at.
// Result-size accounting (the monitor window and recall measurements) is
// anchored at the body's output watermark onT rather than the raw input
// time: under a buffer of K time units the output progress lags the input
// by K, and anchoring at the input would misread buffered-but-not-yet-
// produced results as losses.
func (p *Pipeline) adaptStep(at stream.Time) {
	// Quiesce the parallel layer first: statistics catch up, worker queues
	// drain, and the interval's per-tuple productivity and result streams
	// replay into the profilers and the monitor in deterministic arrival
	// order — the sequence a single-threaded body would have fed them.
	p.Quiesce()
	outT := p.watermark()
	prevK := p.curK
	p.ApplyKs(p.loop.DecideAt(at, outT))
	if p.tree != nil {
		// A smaller K releases buffered tuples into the tree. Barrier
		// again: the boundary must be a fully quiesced point, so that a
		// checkpoint captured here observes exactly the state every
		// uninterrupted run has — otherwise the capture's early probe
		// release would perturb the parent-side interleaving of the
		// continuing run (DESIGN.md §10).
		p.tree.Quiesce()
		outT = p.tree.Watermark()
	}
	if p.cfg.OnAdapt != nil {
		p.cfg.OnAdapt(AdaptEvent{Now: at, OutT: outT, PrevK: prevK, NewK: p.curK, GammaPrime: p.loop.GammaPrime()})
	}
}

// watermark returns the body's output progress onT.
func (p *Pipeline) watermark() stream.Time {
	switch {
	case p.tree != nil:
		return p.tree.Watermark()
	case p.rt != nil:
		return p.rt.Watermark()
	}
	return p.op.HighWatermark()
}

// replayTuple is the FlushInterval visitor of the sharded path: it feeds
// one merged in-order tuple's productivity record and result count into
// the feedback loop, exactly as the single-shard operator hooks would.
func (p *Pipeline) replayTuple(ts, delay stream.Time, nCross, nOn int64) {
	p.loop.RecordInOrder(0, delay, nCross, nOn)
	if nOn > 0 {
		p.onResultCount(ts, nOn)
	}
}

// Finish flushes the K-slack buffers and the body at end of input so every
// remaining tuple reaches the join; worker goroutines then drain and stop.
// Finishing twice panics, as does pushing afterwards: the run cannot be
// restarted.
func (p *Pipeline) Finish() {
	if p.finished {
		panic("core: Finish on a finished pipeline — the run is already flushed and cannot be restarted; build a new Pipeline")
	}
	p.finished = true
	for _, k := range p.ks {
		k.Flush()
	}
	if p.tree != nil {
		p.tree.Finish()
		return
	}
	for i := 0; i < p.m; i++ {
		p.sync.Close(i)
	}
	if p.rt != nil {
		p.loop.Close()
		p.rt.FlushInterval(p.replayTuple, p.cfg.Emit)
		p.rt.Close()
	}
}

// Results returns the number of produced join results.
func (p *Pipeline) Results() int64 { return p.results }

// Pushed returns the number of raw arrivals consumed.
func (p *Pipeline) Pushed() int64 { return p.pushed }

// CurrentK returns the largest per-scope buffer size currently applied.
func (p *Pipeline) CurrentK() stream.Time { return p.curK }

// CurrentKs returns the most recent decision, one K per scope (the initial
// K before the first); the slice is live, copy to retain.
func (p *Pipeline) CurrentKs() []stream.Time { return p.loop.Ks() }

// Quiesce drains the body's deferred work without capturing any state: the
// async statistics feeder and the sharded runtime's pending interval, or a
// tree's pending stage releases; a no-op on the single-threaded flat path,
// where every delivery is synchronous. A plan migration calls this at the
// end of its replay so that every result the replay produced passes the
// delivery gate while it is still in replay mode. The mid-interval flush is
// trajectory-safe (see Checkpoint).
func (p *Pipeline) Quiesce() {
	switch {
	case p.tree != nil:
		p.tree.Quiesce()
	case p.rt != nil:
		p.loop.Sync()
		p.rt.FlushInterval(p.replayTuple, p.cfg.Emit)
	}
}

// ApplyKs installs one buffer size per scope — at every adaptation step,
// and directly when a plan migration transplants a restored loop's Ks.
// Shrinking releases newly eligible tuples immediately.
func (p *Pipeline) ApplyKs(ks []stream.Time) {
	p.curK = 0
	for j, streams := range p.leaves {
		for _, i := range streams {
			p.ks[i].SetK(ks[j])
		}
		p.curK = max(p.curK, ks[j])
	}
}

// AvgK returns the average over adaptation steps of the largest per-scope
// K, the paper's result-latency metric.
func (p *Pipeline) AvgK() float64 { return p.loop.AvgMaxK() }

// Adaptations returns the number of adaptation steps performed.
func (p *Pipeline) Adaptations() int64 { return p.loop.Decisions() }

// Stats exposes the Statistics Manager (read-only use by callers), caught
// up with every arrival: the async feeder of the sharded path is synced
// first, so the caller never reads it while the feeder writes.
func (p *Pipeline) Stats() *stats.Manager {
	p.loop.Sync()
	return p.loop.Stats()
}

// Loop exposes the feedback runtime.
func (p *Pipeline) Loop() *feedback.Loop { return p.loop }

// Model returns the first scope's model policy when in use, else nil. It
// exposes the Fig. 11 adaptation-time instrumentation.
func (p *Pipeline) Model() *adapt.Model { return p.loop.Model(0) }

// Operator exposes the join operator for inspection in tests. It is nil on
// the sharded path and on trees.
func (p *Pipeline) Operator() *join.Operator { return p.op }

// Tree exposes the plan tree for inspection in tests; nil on flat shapes.
func (p *Pipeline) Tree() *dist.PlanTree { return p.tree }

// SetEmit installs a result callback after construction (used by channel
// runners that wire their sink late). Off the single-threaded flat path it
// must run before the first Push.
func (p *Pipeline) SetEmit(f join.EmitFunc) {
	if p.op != nil {
		p.op.SetEmit(f)
		return
	}
	if p.pushed > 0 {
		// A pushed tuple can sit in a buffer without having reached the
		// workers or the tree, but any Push means results may already
		// have been produced without the sink.
		panic("core: SetEmit after the run has started — results produced so far were not delivered; install the sink before the first Push")
	}
	p.cfg.Emit = f
	if p.rt != nil {
		p.rt.EnableMaterialize()
	}
}

// Run pushes an entire arrival-ordered batch and finishes the pipeline.
func (p *Pipeline) Run(b stream.Batch) {
	for _, e := range b {
		p.Push(e)
	}
	p.Finish()
}
