// Package core wires the quality-driven disorder handling framework of
// Fig. 2: one K-slack component per input stream, a Synchronizer merging
// their outputs, the MSWJ operator, and the feedback loop — extracted into
// internal/feedback — that re-decides the common buffer size K every L time
// units. The pipeline is a thin client of the loop: it feeds arrivals,
// productivity records and result counts in, and applies the loop's single
// global Same-K decision to its K-slack buffers at every interval boundary.
//
// The pipeline is push-based and driven entirely by logical time (tuple
// timestamps), so runs are deterministic and replay far faster than real
// time. A channel-based concurrent runner is provided in runner.go for
// applications that want the pipeline off their ingest goroutine.
package core

import (
	"repro/internal/adapt"
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/monitor"
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

// KChanger is optionally implemented by runtimes that must observe the
// feedback loop's buffer-size decisions — the networked runtime ships them
// to its workers as in-band control events. The in-process runtime has no
// use for them (K-slack lives upstream of the router), so the pipeline
// type-asserts rather than widening Runtime.
type KChanger interface {
	KChange(ks []stream.Time)
}

// PolicyFactory builds the buffer-size policy once the feedback loop has
// created the shared statistics components. (This is the historical core
// signature; internal/feedback defines the scope-aware generalization, and
// the pipeline adapts between the two.)
type PolicyFactory func(st *stats.Manager, mon *monitor.Monitor, cfg adapt.Config, windows []stream.Time) adapt.Policy

// ModelPolicy returns the paper's model-based quality-driven policy.
func ModelPolicy() PolicyFactory {
	return func(st *stats.Manager, mon *monitor.Monitor, cfg adapt.Config, windows []stream.Time) adapt.Policy {
		return adapt.NewModel(cfg, windows, st, mon)
	}
}

// NoKPolicy returns the No-K-slack baseline.
func NoKPolicy() PolicyFactory {
	return func(*stats.Manager, *monitor.Monitor, adapt.Config, []stream.Time) adapt.Policy {
		return adapt.NoK{}
	}
}

// MaxKPolicy returns the Max-K-slack baseline.
func MaxKPolicy() PolicyFactory {
	return func(st *stats.Manager, _ *monitor.Monitor, _ adapt.Config, _ []stream.Time) adapt.Policy {
		return adapt.MaxK{Stats: st}
	}
}

// StaticPolicy returns a fixed-K policy.
func StaticPolicy(k stream.Time) PolicyFactory {
	return func(*stats.Manager, *monitor.Monitor, adapt.Config, []stream.Time) adapt.Policy {
		return adapt.Static{K: k}
	}
}

// FeedbackPolicy adapts the historical core PolicyFactory signature to the
// scope-aware factory internal/feedback expects, reading the loop's raw
// Statistics Manager and Monitor out of the environment. Every executor that
// must reproduce the classic pipeline's K decisions bit-for-bit (the pipeline
// itself, internal/multi) builds its loops through this one adapter, so the
// policy always sees the same statistics sources.
func FeedbackPolicy(pf PolicyFactory) feedback.PolicyFactory {
	return func(env feedback.Env) adapt.Policy {
		return pf(env.Stats, env.Monitor, env.Adapt, env.Windows)
	}
}

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
	// Policy selects the buffer-size policy; default is ModelPolicy.
	Policy PolicyFactory
	// StatsOpts customizes the Statistics Manager (fixed history ablation…).
	StatsOpts []stats.Option
	// Emit optionally receives every produced join result. Leaving it nil
	// enables the join operator's counting-only fast path, which matters for
	// high-selectivity equi workloads.
	Emit join.EmitFunc
	// EmitCounts optionally receives per-arrival result counts (always
	// cheap; the Result-Size Monitor uses the same channel internally).
	EmitCounts join.CountEmitFunc
	// OnAdapt optionally observes every adaptation step.
	OnAdapt func(AdaptEvent)
	// InitialK is the buffer size before the first adaptation step.
	InitialK stream.Time
	// Sharding enables the partition-parallel execution path.
	Sharding Sharding
	// NewRuntime optionally overrides the sharded runtime constructor — the
	// seam through which plan injects the networked worker runtime
	// (internal/net). When set, the runtime path is used even at one shard.
	NewRuntime func(shard.Config) Runtime
	// Inject is the optional fault-injection harness: sharded runs hand it
	// to the shard workers (worker s checks directives for worker s); the
	// single-threaded path checks worker 0's directives at every Push.
	Inject *fault.Injector
}

// Pipeline is the assembled framework.
type Pipeline struct {
	cfg   Config
	m     int
	loop  *feedback.Loop
	ks    []*kslack.Buffer
	sync  *syncer.Synchronizer
	op    *join.Operator // nil on the sharded path
	model *adapt.Model   // non-nil when the policy is the model policy

	// Sharded path (Config.Sharding.Shards > 1 or Config.NewRuntime set):
	// the runtime replaces op and the loop runs its Statistics Manager
	// asynchronously, barriered before every decision.
	rt Runtime

	finished bool
	curK     stream.Time

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

	sharded := cfg.Sharding.Shards > 1 || cfg.NewRuntime != nil

	p := &Pipeline{cfg: cfg, m: m, curK: cfg.InitialK}
	p.loop = feedback.New(feedback.Config{
		Windows:    cfg.Windows,
		Adapt:      cfg.Adapt,
		Policy:     FeedbackPolicy(cfg.Policy),
		StatsOpts:  cfg.StatsOpts,
		InitialK:   cfg.InitialK,
		Async:      sharded,
		AsyncBatch: cfg.Sharding.BatchSize,
	})
	p.model = p.loop.Model(0)

	if sharded {
		shards := cfg.Sharding.Shards
		if shards < 1 {
			shards = 1
		}
		scfg := shard.Config{
			N:           shards,
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
	} else {
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
	p.ks = make([]*kslack.Buffer, m)
	for i := range p.ks {
		p.ks[i] = kslack.New(cfg.InitialK, p.sync.Push)
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

// Push feeds one raw arrival into the framework and runs any adaptation
// steps whose interval boundaries the arrival crossed. Pushing into a
// finished pipeline panics: the flushed buffers and stopped shard workers
// cannot be restarted, so the tuple would be silently dropped.
func (p *Pipeline) Push(e *stream.Tuple) {
	if p.finished {
		panic("core: Push on a finished pipeline — Finish flushed the buffers and a run cannot be restarted; build a new Pipeline")
	}
	if p.rt == nil {
		// The single-threaded path has no worker goroutines; an injected
		// worker-0 fault fires here, between tuples, which is exactly a
		// checkpoint-consistent crash point (DESIGN.md §10).
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
// anchored at the join operator's watermark onT rather than the raw input
// time: under a buffer of K time units the output progress lags the input by
// K, and anchoring at the input would misread buffered-but-not-yet-produced
// results as losses.
func (p *Pipeline) adaptStep(at stream.Time) {
	var outT stream.Time
	if p.rt != nil {
		// Quiesce the parallel layer first: statistics catch up, shard
		// queues drain, and the interval’s per-tuple productivity and
		// result streams replay into the profiler/monitor in deterministic
		// arrival order — the same sequence a single-shard operator would
		// have fed them.
		p.loop.Sync()
		outT = p.rt.Watermark()
		p.rt.FlushInterval(p.replayTuple, p.cfg.Emit)
	} else {
		outT = p.op.HighWatermark()
	}
	prevK := p.curK
	newK := p.loop.DecideAt(at, outT)[0]
	for _, k := range p.ks {
		k.SetK(newK)
	}
	p.curK = newK
	if kc, ok := p.rt.(KChanger); ok {
		// Ship the decision to runtimes that track it (networked workers):
		// the barrier above quiesced the ended interval, so this control
		// event lands after its last tuple and before the next interval's
		// first — the in-band ordering the protocol asserts at barriers.
		kc.KChange([]stream.Time{newK})
	}
	if p.cfg.OnAdapt != nil {
		ev := AdaptEvent{Now: at, OutT: outT, PrevK: prevK, NewK: newK}
		if p.model != nil {
			ev.GammaPrime = p.model.LastGammaPrime()
		}
		p.cfg.OnAdapt(ev)
	}
}

// replayTuple is the FlushInterval visitor of the sharded path: it feeds
// one merged in-order tuple’s productivity record and result count into
// the feedback loop, exactly as the single-shard operator hooks would.
func (p *Pipeline) replayTuple(ts, delay stream.Time, nCross, nOn int64) {
	p.loop.RecordInOrder(0, delay, nCross, nOn)
	if nOn > 0 {
		p.onResultCount(ts, nOn)
	}
}

// Finish flushes the K-slack buffers and the Synchronizer at end of input so
// every remaining tuple reaches the join operator; on the sharded path it
// then drains and stops the shard workers. Finishing twice panics, as does
// pushing afterwards: the run cannot be restarted.
func (p *Pipeline) Finish() {
	if p.finished {
		panic("core: Finish on a finished pipeline — the run is already flushed and cannot be restarted; build a new Pipeline")
	}
	p.finished = true
	for _, k := range p.ks {
		k.Flush()
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

// CurrentK returns the buffer size currently applied.
func (p *Pipeline) CurrentK() stream.Time { return p.curK }

// Quiesce synchronizes the async statistics feeder and flushes the sharded
// runtime's pending result deliveries without capturing any state; a no-op
// on the single-threaded path, where every delivery is synchronous. A plan
// migration calls this at the end of its replay so that every result the
// replay produced passes the delivery gate while it is still in replay
// mode. The mid-interval flush is trajectory-safe (see Checkpoint).
func (p *Pipeline) Quiesce() {
	if p.rt != nil {
		p.loop.Sync()
		p.rt.FlushInterval(p.replayTuple, p.cfg.Emit)
	}
}

// ApplyK installs a buffer size directly, outside the adaptation schedule —
// the K-transplant path a plan migration uses after restoring the feedback
// loop. Shrinking releases newly eligible tuples immediately, exactly as an
// adaptation step would.
func (p *Pipeline) ApplyK(k stream.Time) {
	p.curK = k
	for _, b := range p.ks {
		b.SetK(k)
	}
	if kc, ok := p.rt.(KChanger); ok {
		kc.KChange([]stream.Time{k})
	}
}

// AvgK returns the average buffer size over all adaptation intervals, the
// paper's result-latency metric.
func (p *Pipeline) AvgK() float64 { return p.loop.AvgK(0) }

// Adaptations returns the number of adaptation steps performed.
func (p *Pipeline) Adaptations() int64 { return p.loop.Decisions() }

// Stats exposes the Statistics Manager (read-only use by callers).
func (p *Pipeline) Stats() *stats.Manager { return p.loop.Stats() }

// Loop exposes the extracted feedback runtime (read-only use by tests).
func (p *Pipeline) Loop() *feedback.Loop { return p.loop }

// Model returns the model policy when in use, else nil. It exposes the
// Fig. 11 adaptation-time instrumentation.
func (p *Pipeline) Model() *adapt.Model { return p.model }

// Operator exposes the join operator for inspection in tests. It is nil on
// the sharded path, where the operator state lives inside the shard workers.
func (p *Pipeline) Operator() *join.Operator { return p.op }

// SetEmit installs a result callback after construction (used by channel
// runners that wire their sink late). On the sharded path it must run
// before the first Push; the shard runtime enforces this.
func (p *Pipeline) SetEmit(f join.EmitFunc) {
	if p.rt != nil {
		if p.pushed > 0 {
			// The shard runtime guards its own start, but a pushed tuple can
			// still sit in K-slack/Synchronizer without having reached the
			// shards; any Push means count-only results may already exist.
			panic("core: SetEmit after the sharded run has started — results produced so far were count-only and would be lost; install the sink before the first Push")
		}
		p.cfg.Emit = f
		p.rt.EnableMaterialize()
		return
	}
	p.op.SetEmit(f)
}

// Run pushes an entire arrival-ordered batch and finishes the pipeline.
func (p *Pipeline) Run(b stream.Batch) {
	for _, e := range b {
		p.Push(e)
	}
	p.Finish()
}
