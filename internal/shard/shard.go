// Package shard is the one partition-and-route core of every sharded
// shape: the partition rule (Rule), the membership multiset behind the
// global n×(e) (Ring), the worker step (Step) with its accumulator (Out),
// and the worker pool with its barrier merge (Pool, MergeOuts),
// parameterized by a worker body. Three callers share it: flat shards
// (Runtime, whose body is a full join.Operator, OpBody), the networked
// runtime of internal/net (the same Router on the driver, Step on an
// OpBody in each TCP worker, MergeOuts over the decoded acks), and
// sharded tree stages of internal/dist (whose body is one stage's window
// pair).
//
// Disorder handling stays sequential: the K-slack buffers and the
// Synchronizer feed the driver, which tracks the global watermark onT,
// classifies each tuple in-order or out-of-order exactly as one operator
// would, and routes it. Workers step FIFO under that watermark; a merge
// drains them and releases their results in (arrival, worker) order, so
// the result multiset and the statistics feeding the K decision are
// bit-for-bit those of an unsharded run, for any worker count (DESIGN.md
// §7).
package shard

import (
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/stream"
)

// Config assembles a Runtime.
type Config struct {
	// N is the shard count (≥ 1).
	N int
	// Cond and Windows define the join, as for join.New.
	Cond    *join.Condition
	Windows []stream.Time
	// Materialize builds the shard operators with result buffers so
	// FlushInterval can emit stream.Results; leaving it false keeps the
	// operators' counting-only fast path. EnableMaterialize can switch it
	// on later, but only before the first tuple is routed.
	Materialize bool
	// BatchSize is the number of messages per inter-thread hand-off
	// (default 128).
	BatchSize int
	// OnOutOfOrder observes every globally out-of-order synchronized tuple
	// with its delay annotation; it runs on the ingest goroutine. The core
	// pipeline feeds the Tuple-Productivity Profiler's out-of-order charge
	// through it.
	OnOutOfOrder func(delay stream.Time)
	// Inject is the optional fault-injection harness; shard s consults
	// directives armed for worker s at every probe step. Nil disables
	// injection with no per-message cost beyond a nil check.
	Inject *fault.Injector
}

// OpBody is a flat shard's worker body: one full join.Operator and the
// worker's accumulator its materialized results go to. A Runtime runs one
// per pool worker; a networked worker (internal/net) runs one behind its
// socket.
type OpBody struct {
	Op  *join.Operator
	Out *Out[stream.Result]
}

func (b *OpBody) Probe(m *Msg[*stream.Tuple]) int64 { return b.Op.ProcessAt(m.Item, m.WM) }
func (b *OpBody) Insert(m *Msg[*stream.Tuple])      { b.Op.InsertAt(m.Item, m.WM) }

// Materialize sends the operator's results to Out.
func (b *OpBody) Materialize() { b.Op.SetEmit(b.emit) }

// emit buffers a copy of the borrowed result r in Out's arena.
func (b *OpBody) emit(r stream.Result) {
	tuples := b.Out.Slots(len(r.Tuples))
	copy(tuples, r.Tuples)
	b.Out.Emit(stream.Result{TS: r.TS, Tuples: tuples})
}

// Runtime runs one logical join as cfg.N shards.
type Runtime struct {
	cfg      Config
	router   *Router
	finished bool

	pool   *Pool[*stream.Tuple, stream.Result]
	shards []*OpBody
}

// New builds the runtime and starts its shard goroutines. The partition
// scheme is compiled from cfg.Cond via the planner (NewRouter).
func New(cfg Config) *Runtime {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 128
	}
	rt := &Runtime{
		cfg:    cfg,
		router: NewRouter(cfg.N, cfg.Cond, cfg.Windows, cfg.OnOutOfOrder),
	}
	rt.pool = NewPool(cfg.N, cfg.BatchSize, cfg.Inject, func(_ int, out *Out[stream.Result]) Body[*stream.Tuple] {
		b := &OpBody{join.New(cfg.Cond, cfg.Windows), out}
		rt.shards = append(rt.shards, b)
		return b
	})
	if cfg.Materialize {
		rt.installEmit()
	}
	return rt
}

// Watermark returns the global synchronized-stream watermark onT, the
// sharded equivalent of Operator.HighWatermark.
func (rt *Runtime) Watermark() stream.Time { return rt.router.Watermark() }

// EnableMaterialize installs result buffers on every shard operator so
// FlushInterval can deliver materialized results. Installing a sink after
// tuples have been routed would silently lose the results already counted
// on the fast path, so it panics once the run has started.
func (rt *Runtime) EnableMaterialize() {
	if rt.router.Started() {
		panic("shard: cannot install a results sink after the sharded run has started — results produced so far were count-only; install the sink before the first Push")
	}
	if rt.cfg.Materialize {
		return
	}
	rt.cfg.Materialize = true
	rt.installEmit()
}

func (rt *Runtime) installEmit() {
	for _, b := range rt.shards {
		b.Materialize()
	}
}

// Route accepts one synchronized tuple from the spine (K-slack →
// Synchronizer) and forwards it to the shards the partition scheme
// selects. It must be called from a single goroutine.
func (rt *Runtime) Route(e *stream.Tuple) {
	if rt.finished {
		panic("shard: Route on a finished runtime — a sharded run cannot be restarted; build a new pipeline")
	}
	d := rt.router.Observe(e)
	if d.Drop {
		return // out of scope everywhere; the shards would drop it too
	}
	kind := Insert
	if d.Probe {
		kind = Probe
	}
	rt.dispatch(Msg[*stream.Tuple]{Item: e, WM: d.WM, Idx: d.Idx, Kind: kind}, d.All, d.Owner, d.Replicas)
}

// dispatch sends m to every shard, or to owner with insert-only copies to
// the replicas.
func (rt *Runtime) dispatch(m Msg[*stream.Tuple], all bool, owner int, replicas []int) {
	if all {
		for s := range rt.shards {
			rt.pool.Send(s, m)
		}
		return
	}
	rt.pool.Send(owner, m)
	m.Kind, m.Idx = Insert, 0
	for _, s := range replicas {
		rt.pool.Send(s, m)
	}
}

// FlushInterval drains the shards and releases one interval through
// Router.Release: for every globally in-order tuple of the interval,
// buffered results (if materializing) are emitted first, then visit
// receives the tuple's result timestamp, delay annotation, global cross
// size n×(e) and merged result count n^on(e) — exactly the per-tuple
// sequence a single-shard operator would have produced. A worker failure
// panics before anything is emitted. Tuples routed afterwards (e.g. by an
// eager K shrink) are accounted to the next interval.
func (rt *Runtime) FlushInterval(
	visit func(ts, delay stream.Time, nCross, nOn int64),
	emit func(stream.Result),
) {
	rt.pool.Sync()
	rt.router.Release(rt.pool.outs, visit, emit)
}

// ShardLoads returns, per shard, how many messages its operator has
// processed so far (probe messages only). Call after a FlushInterval for a
// quiesced view; it is a balance diagnostic, not part of the semantics.
func (rt *Runtime) ShardLoads() []int64 {
	out := make([]int64, len(rt.shards))
	for s, b := range rt.shards {
		out[s] = b.Op.Processed()
	}
	return out
}

// Close stops the shard goroutines. Call after a final FlushInterval; the
// runtime cannot be reused.
func (rt *Runtime) Close() {
	rt.finished = true
	rt.pool.Close()
}
