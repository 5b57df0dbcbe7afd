package shard

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/stream"
)

// queueBatches is the per-worker queue capacity in batches.
const queueBatches = 64

// Kind is the step a worker message asks for.
type Kind uint8

const (
	Probe   Kind = iota // full Alg. 2 step: expire, probe, insert
	Insert              // insert-only: out-of-order arrivals and band replicas
	barrier             // quiesce marker; the worker acks Pool.barrier
)

// Msg is one unit of worker input.
type Msg[T any] struct {
	Item T
	WM   stream.Time // global watermark including Item
	Idx  int         // arrival index within the current merge (Probe only)
	Side uint8       // input side, for bodies with two (tree stages)
	Kind Kind
}

// Body is one worker's share of the join, owned by its goroutine between
// barriers: a flat shard's join.Operator, or a tree stage's window pair.
type Body[T any] interface {
	// Probe runs the full Alg. 2 step and returns the results it derived;
	// a materializing body hands them to its Out.
	Probe(m *Msg[T]) int64
	// Insert inserts without probing or counting.
	Insert(m *Msg[T])
}

// Out is one worker's per-merge accumulator: result counts and results,
// tagged with the arrival index of the probe that derived them. Pool
// workers and networked workers (internal/net) fill one each through Step;
// a networked driver decodes every worker's barrier ack into one; MergeOuts
// releases them.
//
// A result held here outlives the callback that lent it, so its tuple
// pointers live in the accumulator's own arena (Slots) until Reset.
type Out[R any] struct {
	idx    int
	on     []int64 // on[i] = results derived by arrival i on this worker
	res    []R
	resIdx []int // arrival index per result; non-decreasing
	next   int   // MergeOuts' cursor into res
	arena  []*stream.Tuple
}

// Emit buffers one result of the probe in progress.
func (o *Out[R]) Emit(r R) { o.Put(o.idx, r) }

// Put buffers result r of arrival idx; idx must not decrease.
func (o *Out[R]) Put(idx int, r R) {
	o.res = append(o.res, r)
	o.resIdx = append(o.resIdx, idx)
}

// Slots returns m nil tuple pointers from the arena, valid until Reset.
// The slice is capacity-clipped, so appending to it copies. The arena
// grows to the largest merge and is reused from then on; a grown arena
// leaves the slots handed out before in the old block, still valid.
func (o *Out[R]) Slots(m int) []*stream.Tuple {
	n := len(o.arena)
	o.arena = append(o.arena, make([]*stream.Tuple, m)...)
	return o.arena[n : n+m : n+m]
}

// Add credits n results to arrival idx.
func (o *Out[R]) Add(idx int, n int64) {
	for len(o.on) <= idx {
		o.on = append(o.on, 0)
	}
	o.on[idx] += n
}

// Counts returns the result counts by arrival index; arrivals past its end
// derived none.
func (o *Out[R]) Counts() []int64 { return o.on }

// Results returns the buffered results and the arrival index of each.
func (o *Out[R]) Results() ([]R, []int) { return o.res, o.resIdx }

// Reset empties the accumulator, keeping its capacity.
func (o *Out[R]) Reset() {
	o.on = o.on[:0]
	clear(o.res)
	clear(o.arena)
	o.res, o.resIdx, o.next, o.arena = o.res[:0], o.resIdx[:0], 0, o.arena[:0]
}

// MergeOuts releases the results of arrivals [0, arrivals) from outs in
// (arrival, worker) order: each result of arrival i goes to emit, then
// visit receives i's summed count — the order an unsharded step has, whose
// probe emits before its hooks run. The accumulators are reset afterwards.
// The caller has quiesced the workers: Pool.Merge after its barrier, a
// networked driver after decoding every barrier ack.
func MergeOuts[R any](outs []*Out[R], arrivals int, visit func(i int, nOn int64), emit func(R)) {
	for i := 0; i < arrivals; i++ {
		var tot int64
		for _, o := range outs {
			if i < len(o.on) {
				tot += o.on[i]
			}
			for ; o.next < len(o.resIdx) && o.resIdx[o.next] == i; o.next++ {
				emit(o.res[o.next])
			}
		}
		visit(i, tot)
	}
	for _, o := range outs {
		o.Reset()
	}
}

// Step runs one message through worker id's body — the step of every
// flat-shard and stage-shard worker, in-process (Pool) or behind a socket
// (internal/net). An insert only inserts. A probe consults inject's
// directives for id, then runs the body with out tagged by the arrival
// index and credits the derived count to out. A panic is recovered into
// the returned error; the caller then drains: it discards further messages
// but keeps acking barriers, and the driver surfaces the error at the next
// merge.
func Step[T, R any](id int, body Body[T], out *Out[R], inject *fault.Injector, m *Msg[T]) (err *fault.WorkerError) {
	defer func() {
		if r := recover(); r != nil {
			err = &fault.WorkerError{Worker: id, Cause: fault.AsError(r)}
		}
	}()
	if m.Kind == Insert {
		body.Insert(m)
		return nil
	}
	inject.MaybeDelay(id)
	inject.MaybePanic(id)
	out.idx = m.Idx
	if n := body.Probe(m); n != 0 {
		out.Add(m.Idx, n)
	}
	return nil
}

type worker[T, R any] struct {
	id     int
	ch     chan []Msg[T]
	body   Body[T]
	out    Out[R]
	failed bool // worker-goroutine-local: set after a recovered panic
	done   chan struct{}
}

// Pool is the one worker pool of every sharded shape: n goroutines, each
// running a Body over its FIFO queue of batched messages, a barrier that
// drains all queues, and the merge that releases their results in
// (arrival, worker) order on the driver goroutine. Send, Merge, Sync and
// Close are driver-only.
type Pool[T, R any] struct {
	workers []*worker[T, R]
	pend    [][]Msg[T]
	batch   int
	free    sync.Pool
	barrier sync.WaitGroup
	inject  *fault.Injector
	closed  bool

	failMu  sync.Mutex
	failure error // first recovered worker panic, surfaced at the next barrier

	outs []*Out[R] // outs[w] is worker w's accumulator
}

// NewPool starts n workers; body builds worker w's Body around its Out.
// Worker w consults inject's directives for w at every probe step.
func NewPool[T, R any](n, batch int, inject *fault.Injector, body func(w int, out *Out[R]) Body[T]) *Pool[T, R] {
	p := &Pool[T, R]{
		workers: make([]*worker[T, R], n),
		pend:    make([][]Msg[T], n),
		batch:   batch,
		inject:  inject,
		outs:    make([]*Out[R], n),
	}
	p.free.New = func() any { return make([]Msg[T], 0, batch) }
	for i := range p.workers {
		w := &worker[T, R]{id: i, ch: make(chan []Msg[T], queueBatches), done: make(chan struct{})}
		w.body = body(i, &w.out)
		p.workers[i] = w
		p.outs[i] = &w.out
		p.pend[i] = p.getBatch()
	}
	for _, w := range p.workers {
		go p.run(w)
	}
	return p
}

// SetInjector replaces the fault injector; call before the first Send.
func (p *Pool[T, R]) SetInjector(inj *fault.Injector) { p.inject = inj }

func (p *Pool[T, R]) getBatch() []Msg[T] { return p.free.Get().([]Msg[T])[:0] }

// Send appends m to worker w's pending batch, handing a full batch over.
func (p *Pool[T, R]) Send(w int, m Msg[T]) {
	p.pend[w] = append(p.pend[w], m)
	if len(p.pend[w]) >= p.batch {
		p.flush(w)
	}
}

func (p *Pool[T, R]) flush(w int) {
	if len(p.pend[w]) == 0 {
		return
	}
	p.workers[w].ch <- p.pend[w]
	p.pend[w] = p.getBatch()
}

// Sync drains every queue: a barrier rides at the tail of each pending
// batch and the workers ack once they reach it. Failed workers still ack,
// so Sync never waits on a dead worker; it panics with the first recorded
// failure instead. Afterwards the bodies are readable from the driver.
func (p *Pool[T, R]) Sync() {
	p.barrier.Add(len(p.workers))
	for w := range p.workers {
		p.pend[w] = append(p.pend[w], Msg[T]{Kind: barrier})
		p.flush(w)
	}
	p.barrier.Wait()
	// Every worker acked, so its failure record happened before this read.
	if p.failure != nil {
		panic(p.failure)
	}
}

// Merge syncs and releases the results of arrivals [0, arrivals) through
// MergeOuts. A failure panics in Sync, before anything is emitted: a merge
// releases entirely or not at all, the boundary the replay gates rely on
// (DESIGN.md §10).
func (p *Pool[T, R]) Merge(arrivals int, visit func(i int, nOn int64), emit func(R)) {
	p.Sync()
	MergeOuts(p.outs, arrivals, visit, emit)
}

func (p *Pool[T, R]) fail(err error) {
	p.failMu.Lock()
	if p.failure == nil {
		p.failure = err
	}
	p.failMu.Unlock()
}

// Close hands over the pending batches and stops the workers. Idempotent:
// a finishing run and a supervisor's teardown may both reach it.
func (p *Pool[T, R]) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for w := range p.workers {
		p.flush(w)
		close(p.workers[w].ch)
	}
	for _, w := range p.workers {
		<-w.done
	}
}

// run is the worker goroutine: FIFO over batches, one Step per message. A
// failed step does not kill the goroutine: the worker records the failure
// and switches to drain mode, discarding further work but still acking
// barriers, and the failure surfaces on the driver at the next Sync.
func (p *Pool[T, R]) run(w *worker[T, R]) {
	defer close(w.done)
	for batch := range w.ch {
		for i := range batch {
			m := &batch[i]
			if m.Kind == barrier {
				p.barrier.Done()
				continue
			}
			if w.failed {
				continue
			}
			if err := Step(w.id, w.body, &w.out, p.inject, m); err != nil {
				w.failed = true
				p.fail(err)
			}
		}
		clear(batch)
		p.free.Put(batch[:0])
	}
}
