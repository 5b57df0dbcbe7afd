// Package shard is the key-partitioned parallel execution layer: one
// logical MSWJ (internal/join) runs as N shards on N goroutines, while the
// quality-driven feedback loop of the paper (profiler → monitor → buffer-
// size manager) still makes one global Same-K decision per interval.
//
// # Architecture
//
// The single-threaded spine of the pipeline — K-slack buffers and the
// Synchronizer — is unchanged; disorder handling is inherently sequential
// per stream. The synchronized, mostly timestamp-ordered stream then enters
// the Router instead of one join operator. The router:
//
//   - tracks the global watermark onT and decides in-order/out-of-order
//     exactly like the single operator would;
//   - replays window membership on bare timestamps (tsRing) to obtain the
//     global cross-join size n×(e) for the profiler;
//   - routes each tuple to shards according to the planner's partition
//     scheme (join.Partition): hash on an equi key class, range cells on a
//     band key class with ±Delta overlap replication, or sequence-
//     partitioning of stream 0 with broadcast of the rest.
//
// Each shard owns a full join.Operator (its own windows and
// internal/index structures) and processes its queue in FIFO order under
// the router-supplied global watermark, so a shard never mistakes a
// globally late tuple for an in-order one. Per-tuple result counts and
// materialized results accumulate per shard, indexed by the router's
// arrival counter.
//
// # Deterministic merge
//
// At every adaptation-interval boundary (and at Finish) the runtime runs a
// barrier: all queues drain, then the per-shard streams merge in (arrival,
// shard) order on the ingest thread. Because the partition scheme derives
// every result in exactly one shard, the merged result multiset — and the
// merged statistics feeding the K decision — are bit-for-bit equal to a
// single-shard run, for any shard count. See DESIGN.md §7 for the
// argument.
package shard

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/stream"
)

// queueBatches is the per-shard queue capacity in batches.
const queueBatches = 64

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

// message kinds.
const (
	msgProbe   = iota // full Alg. 2 step: expire, probe, insert
	msgInsert         // replica path: insert-only (band overlap, broadcast)
	msgBarrier        // quiesce marker; worker acks rt.barrier
)

// msg is one unit of shard input.
type msg struct {
	e    *stream.Tuple
	wm   stream.Time // global watermark including e
	idx  int         // router arrival index within the current interval
	kind uint8
}

// worker is one shard: an operator plus its per-interval accumulators. All
// fields except ch are owned by the worker goroutine between barriers; the
// ingest thread reads and resets them only after a barrier acknowledgment
// (sync.WaitGroup provides the happens-before edges).
type worker struct {
	rt     *Runtime
	id     int
	ch     chan []msg
	op     *join.Operator
	curIdx int
	onAcc  []int64 // onAcc[idx] = results derived by arrival idx in this shard
	res    []stream.Result
	resIdx []int // arrival index per buffered result; non-decreasing
	failed bool  // worker-goroutine-local: set after a recovered panic
	done   chan struct{}
}

// Runtime runs one logical join as cfg.N shards.
type Runtime struct {
	cfg      Config
	router   *Router
	n        int
	finished bool

	workers []*worker
	pend    [][]msg
	pool    sync.Pool
	barrier sync.WaitGroup

	failMu  sync.Mutex
	failure error // first recovered worker panic, surfaced at the next quiesce

	ptr []int // scratch: per-shard result cursor during merge
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
		n:      cfg.N,
		pend:   make([][]msg, cfg.N),
		ptr:    make([]int, cfg.N),
	}
	rt.pool.New = func() any { return make([]msg, 0, cfg.BatchSize) }
	rt.workers = make([]*worker, cfg.N)
	for s := range rt.workers {
		w := &worker{
			rt:   rt,
			id:   s,
			ch:   make(chan []msg, queueBatches),
			op:   join.New(cfg.Cond, cfg.Windows),
			done: make(chan struct{}),
		}
		rt.workers[s] = w
		rt.pend[s] = rt.getBatch()
	}
	if cfg.Materialize {
		rt.installEmit()
	}
	for _, w := range rt.workers {
		go w.run()
	}
	return rt
}

// Scheme returns the compiled partition scheme.
func (rt *Runtime) Scheme() join.PartitionScheme { return rt.router.Scheme() }

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
	for _, w := range rt.workers {
		w := w
		w.op.SetEmit(func(r stream.Result) {
			w.res = append(w.res, r)
			w.resIdx = append(w.resIdx, w.curIdx)
		})
	}
}

func (rt *Runtime) getBatch() []msg {
	return rt.pool.Get().([]msg)[:0]
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
	kind := uint8(msgInsert)
	if d.Probe {
		kind = msgProbe
	}
	if d.All {
		for s := 0; s < rt.n; s++ {
			rt.send(s, msg{e: e, wm: d.WM, idx: d.Idx, kind: kind})
		}
		return
	}
	rt.send(d.Owner, msg{e: e, wm: d.WM, idx: d.Idx, kind: kind})
	for _, s := range d.Replicas {
		rt.send(s, msg{e: e, wm: d.WM, kind: msgInsert})
	}
}

// send appends m to shard s's pending batch, flushing a full batch to the
// queue.
func (rt *Runtime) send(s int, m msg) {
	rt.pend[s] = append(rt.pend[s], m)
	if len(rt.pend[s]) >= rt.cfg.BatchSize {
		rt.flush(s)
	}
}

func (rt *Runtime) flush(s int) {
	if len(rt.pend[s]) == 0 {
		return
	}
	rt.workers[s].ch <- rt.pend[s]
	rt.pend[s] = rt.getBatch()
}

// drain quiesces every shard: a barrier message rides at the tail of each
// pending batch, and the workers acknowledge once their queue is empty.
func (rt *Runtime) drain() {
	rt.barrier.Add(rt.n)
	for s := range rt.workers {
		rt.pend[s] = append(rt.pend[s], msg{kind: msgBarrier})
		rt.flush(s)
	}
	rt.barrier.Wait()
}

// FlushInterval drains the shards and merges one interval's streams in
// deterministic (arrival, shard) order: for every globally in-order tuple
// of the interval, buffered results (if materializing) are emitted first,
// then visit receives the tuple's result timestamp, delay annotation,
// global cross size n×(e) and merged result count n^on(e) — exactly the
// per-tuple sequence a single-shard operator would have produced. Interval
// state is reset before returning, so tuples routed afterwards (e.g. by an
// eager K shrink) are accounted to the next interval.
func (rt *Runtime) FlushInterval(
	visit func(ts, delay stream.Time, nCross, nOn int64),
	emit func(stream.Result),
) {
	rt.drain()
	// Surface a worker failure before emitting anything: the interval's
	// results are incomplete (the failed shard stopped deriving), and an
	// interval either emits entirely or not at all — the checkpoint/replay
	// emit gate depends on that boundary alignment (DESIGN.md §10).
	if err := rt.Err(); err != nil {
		panic(err)
	}
	for s := range rt.ptr {
		rt.ptr[s] = 0
	}
	for i := 0; i < rt.router.Arrivals(); i++ {
		var tot int64
		for s, w := range rt.workers {
			if i < len(w.onAcc) {
				tot += w.onAcc[i]
			}
			if emit != nil {
				for rt.ptr[s] < len(w.resIdx) && w.resIdx[rt.ptr[s]] == i {
					emit(w.res[rt.ptr[s]])
					rt.ptr[s]++
				}
			}
		}
		if visit != nil {
			ts, delay, nCross := rt.router.Arrival(i)
			visit(ts, delay, nCross, tot)
		}
	}
	rt.router.ResetInterval()
	for _, w := range rt.workers {
		w.onAcc = w.onAcc[:0]
		clear(w.res)
		w.res = w.res[:0]
		w.resIdx = w.resIdx[:0]
	}
}

// ShardLoads returns, per shard, how many messages its operator has
// processed so far (probe messages only). Call after a FlushInterval for a
// quiesced view; it is a balance diagnostic, not part of the semantics.
func (rt *Runtime) ShardLoads() []int64 {
	out := make([]int64, rt.n)
	for s, w := range rt.workers {
		out[s] = w.op.Processed()
	}
	return out
}

// Close stops the shard goroutines. Call after a final FlushInterval; the
// runtime cannot be reused.
func (rt *Runtime) Close() {
	if rt.finished {
		return
	}
	rt.finished = true
	for s := range rt.workers {
		rt.flush(s)
		close(rt.workers[s].ch)
	}
	for _, w := range rt.workers {
		<-w.done
	}
}

// run is the shard goroutine: FIFO over batches, one operator step per
// message. A panic in a step (injected or genuine) does not kill the
// goroutine: the worker records the failure and switches to drain mode,
// discarding further work but still acknowledging barriers so the driver's
// quiesce protocol never deadlocks. The failure surfaces on the driver
// thread at the next FlushInterval.
func (w *worker) run() {
	defer close(w.done)
	for batch := range w.ch {
		for i := range batch {
			m := &batch[i]
			if m.kind == msgBarrier {
				w.rt.barrier.Done()
				continue
			}
			if w.failed {
				continue
			}
			w.step(m)
		}
		clear(batch)
		w.rt.pool.Put(batch[:0])
	}
}

// step processes one probe/insert message, converting a panic into a
// recorded typed failure.
func (w *worker) step(m *msg) {
	defer func() {
		if r := recover(); r != nil {
			w.failed = true
			w.rt.fail(&fault.WorkerError{Worker: w.id, Cause: fault.AsError(r)})
		}
	}()
	switch m.kind {
	case msgProbe:
		w.rt.cfg.Inject.MaybeDelay(w.id)
		w.rt.cfg.Inject.MaybePanic(w.id)
		w.curIdx = m.idx
		if nOn := w.op.ProcessAt(m.e, m.wm); nOn != 0 {
			w.add(m.idx, nOn)
		}
	case msgInsert:
		w.op.InsertAt(m.e, m.wm)
	}
}

// fail records the first worker failure.
func (rt *Runtime) fail(err error) {
	rt.failMu.Lock()
	if rt.failure == nil {
		rt.failure = err
	}
	rt.failMu.Unlock()
}

// Err returns the first recorded worker failure, or nil. FlushInterval
// panics with it on the driver thread; Err additionally lets tests and
// diagnostics poll without a quiesce.
func (rt *Runtime) Err() error {
	rt.failMu.Lock()
	defer rt.failMu.Unlock()
	return rt.failure
}

// add accumulates a result count under arrival index idx.
func (w *worker) add(idx int, n int64) {
	for len(w.onAcc) <= idx {
		w.onAcc = append(w.onAcc, 0)
	}
	w.onAcc[idx] += n
}
