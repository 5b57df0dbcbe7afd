package join

import (
	"math"

	"repro/internal/stream"
	"repro/internal/window"
)

// ProcessedFunc is the Tuple-Productivity Profiler hook invoked after every
// tuple is processed by the operator (line 11 of Alg. 2). For in-order tuples
// nCross is the cross-join result size n×(e) the tuple would derive given the
// current window contents, and nOn is the number n^on(e) of results actually
// derived; for out-of-order tuples no probing happened and both counts are 0.
type ProcessedFunc func(e *stream.Tuple, nCross, nOn int64, inOrder bool)

// EmitFunc receives each produced join result in production order.
type EmitFunc func(stream.Result)

// CountEmitFunc receives, per in-order arrival that derived results, the
// result timestamp and the number of results produced. It lets downstream
// accounting (recall measurement, the Result-Size Monitor) track result
// sizes without materializing the — potentially enormous — result tuples,
// keeping the operator's counting fast path usable.
type CountEmitFunc func(ts stream.Time, n int64)

// shell is the part of Alg. 2 that does not depend on which queries probe:
// the windows, the watermark onT, the arrival counters and the buffers a probe
// pass reuses. Operator and Multi each embed one, so expire → (probe) → insert
// and the late-tuple rule of lines 9–10 exist once.
type shell struct {
	windows   []*window.Window
	onT       stream.Time
	processed int64
	assignBuf []*stream.Tuple

	outOfOrder int64
	slab       TupleSlab
}

// M returns the number of input streams.
func (s *shell) M() int { return len(s.assignBuf) }

// HighWatermark returns onT, the maximum timestamp among received tuples.
func (s *shell) HighWatermark() stream.Time { return s.onT }

// WindowLen returns the current cardinality of the window on stream i.
func (s *shell) WindowLen(i int) int { return s.windows[i].Len() }

// arrive counts e and advances the watermark to wm = max(watermark before e,
// e.TS). An in-order tuple (e.TS ≥ wm) expires every window and reports the
// cross-join size n×(e) of the others; the caller probes, then inserts e. The
// arriving stream's own window is expired too — probes never consult it, and
// any tuple it drops would be expired by the next probing arrival anyway
// (whose TS is ≥ wm), so results are unaffected; without this, a shard whose
// probes all come from one stream would grow that stream's window without
// bound. An out-of-order tuple skips expiration and probing and is inserted
// only if it can still contribute to future results (lines 9–10).
func (s *shell) arrive(e *stream.Tuple, wm stream.Time) (nCross int64, inOrder bool) {
	s.processed++
	if wm > s.onT {
		s.onT = wm
	}
	if e.TS < wm {
		s.outOfOrder++
		s.insertInScope(e, wm)
		return 0, false
	}
	nCross = 1
	for j, w := range s.windows {
		w.Expire(e.TS - w.Size())
		if j != e.Src {
			nCross *= int64(w.Len())
		}
	}
	return nCross, true
}

// insertInScope expires e's own window up to the watermark and inserts e
// if it is still inside the window scope at wm, the closed interval
// [wm − W, wm] — Expire removes only TS < wm − W, so a late tuple at exactly
// wm − W must be kept. The expiry keeps windows that only ever receive
// inserts (replica/broadcast shards, late tuples) bounded by the logical
// window extent; it cannot change results, because every future probe
// re-expires with a bound ≥ wm − W first.
func (s *shell) insertInScope(e *stream.Tuple, wm stream.Time) {
	w := s.windows[e.Src]
	w.Expire(wm - w.Size())
	if e.TS >= wm-w.Size() {
		w.Insert(e)
	}
}

// Operator is the MSWJ operator of Alg. 2: the arrival shell over one probe
// class holding one residual class with one member (compiled.go), so the
// class compiles the full condition into its steps. It expects its input —
// the merged output of the Synchronizer — to be mostly timestamp-ordered;
// residual out-of-order tuples are detected with onT and handled per lines
// 9–10.
type Operator struct {
	shell
	mem   MultiMember // the condition, the sinks and the result count
	class mclass
}

// resultSlabPtrs caps the pointer block results are carved from at 512 B.
// Pointerful objects above that carry a malloc header and round up to a
// larger size class, which costs more bytes per result than carving saves.
const resultSlabPtrs = 64

// TupleSlab hands out the tuple slices of delivered results by carving them
// out of pointer blocks that are allocated whole and never reused: one
// allocation serves ⌊64/m⌋ results, and a sink may still retain any result
// forever (it then keeps that one block, and the tuples of the results
// carved next to it, reachable). Each slice is capacity-clipped, so
// appending to one copies instead of writing into its neighbour. The tree
// executor's root stage (internal/dist) carves Partial.Parts from one too.
type TupleSlab struct {
	free []*stream.Tuple
}

// Carve returns the next m-tuple slice of the slab, all nil.
func (s *TupleSlab) Carve(m int) []*stream.Tuple {
	if len(s.free) < m {
		s.free = make([]*stream.Tuple, max(resultSlabPtrs/m, 1)*m)
	}
	tuples := s.free[:m:m]
	s.free = s.free[m:]
	return tuples
}

func (s *TupleSlab) result(assign []*stream.Tuple) stream.Result {
	tuples := s.Carve(len(assign))
	copy(tuples, assign)
	return stream.NewResult(tuples)
}

// Option customizes the operator.
type Option func(*Operator)

// WithEmit registers a callback receiving every produced result. Without it
// the operator only counts results, enabling a faster counting-only probe
// path for conditions resolved entirely by indexes (equi and band
// predicates, no generic residual).
func WithEmit(f EmitFunc) Option { return func(o *Operator) { o.mem.emit = f } }

// WithCountEmit registers a per-arrival result-count callback. Unlike
// WithEmit it keeps the counting-only probe fast path enabled.
func WithCountEmit(f CountEmitFunc) Option { return func(o *Operator) { o.mem.countEmit = f } }

// WithProcessedHook registers the productivity profiler hook.
func WithProcessedHook(f ProcessedFunc) Option { return func(o *Operator) { o.mem.onProcessed = f } }

// New creates an MSWJ operator with one sliding window per stream. sizes[i]
// is the window extent W_i for stream i and must be positive.
func New(cond *Condition, sizes []stream.Time, opts ...Option) *Operator {
	if len(sizes) != cond.M {
		panic("join: window sizes must match condition arity")
	}
	cond.seal()
	// One residual class: the class compiles cond itself, never a skeleton.
	o := &Operator{mem: MultiMember{cond: cond}, class: mclass{skel: cond, plans: buildPlans(cond)}}
	for _, opt := range opts {
		opt(o)
	}
	o.class.add(&o.mem)
	o.shell = shell{windows: newWindows(sizes, o.class.plans), assignBuf: make([]*stream.Tuple, cond.M)}
	o.class.compile(o.windows)
	return o
}

// SetEmit installs (or clears) the result callback after construction. A
// non-nil emit disables the counting-only probe fast path.
func (o *Operator) SetEmit(f EmitFunc) {
	o.mem.emit = f
	o.class.refreshEmit()
}

// Results returns the total number of results produced so far.
func (o *Operator) Results() int64 { return o.mem.results }

// OutOfOrder returns how many received tuples were out of order w.r.t. onT.
func (o *Operator) OutOfOrder() int64 { return o.outOfOrder }

// Processed returns the total number of received tuples.
func (o *Operator) Processed() int64 { return o.processed }

// Process consumes one tuple per Alg. 2, tracking the watermark onT from
// the tuples it receives.
func (o *Operator) Process(e *stream.Tuple) {
	o.ProcessAt(e, max(o.onT, e.TS))
}

// ProcessAt consumes one tuple under an externally supplied watermark
// wm = max(watermark before e, e.TS). Sharded execution uses it to impose
// the *global* synchronized-stream watermark on every shard operator, so a
// tuple that is out of order globally is treated as out of order in its
// shard even when the shard itself has not seen the newer tuples (they were
// routed elsewhere). Process is the single-operator special case where the
// operator's own onT is the watermark. It returns the number of results the
// tuple derived (0 for out-of-order tuples).
//
// With one member the credit → insert → hook sequence is flat; Multi's
// fan-out loops over classes, residual classes and members cost 9 % of
// x3-noslack when the operator was made literally a Multi of one.
func (o *Operator) ProcessAt(e *stream.Tuple, wm stream.Time) int64 {
	mm := &o.mem
	nCross, inOrder := o.arrive(e, wm)
	var nOn int64
	if inOrder {
		o.class.probe(&o.shell, e)
		nOn = o.class.out1[0].n
		mm.results += nOn
		if mm.countEmit != nil && nOn > 0 {
			mm.countEmit(e.TS, nOn)
		}
		o.windows[e.Src].Insert(e)
	}
	if mm.onProcessed != nil {
		mm.onProcessed(e, nCross, nOn, inOrder)
	}
	return nOn
}

// InsertAt inserts e into its stream's window under global watermark wm
// without probing or counting. It is the sharded runtime's replica path:
// band-overlap neighbours and broadcast copies must be *matchable* in a
// shard without deriving (or double-counting) results there. The same
// in-scope check as the out-of-order path applies; for globally in-order
// tuples (e.TS == wm) it passes trivially, mirroring the unconditional
// insert of the in-order path.
func (o *Operator) InsertAt(e *stream.Tuple, wm stream.Time) {
	if wm > o.onT {
		o.onT = wm
	}
	o.insertInScope(e, wm)
}

// bandRange returns index-probe bounds guaranteed to cover every value a
// with fl(a − c) ∈ [−eps, eps]. The naive bounds fl(c−eps), fl(c+eps) can
// round past values the difference form accepts (and vice versa), so they
// are widened by a relative slack of ~5 ulps of the larger magnitude; the
// exact difference check in cstep.base then trims the overshoot. A
// non-finite center can never band-match a stored (finite) key and
// reports !ok.
func bandRange(c, eps float64) (lo, hi float64, ok bool) {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return 0, 0, false
	}
	slack := (math.Abs(c) + eps) * 1e-15
	return c - eps - slack, c + eps + slack, true
}

// ProbeRange exposes the widened band-probe bounds to other executors of
// the same band semantics (internal/dist's stage windows): a range index
// probed with [lo, hi] is guaranteed to return a superset of the tuples
// whose exact difference form |a − c| ≤ eps holds, so callers keep the
// exact check as a residual filter. ok is false when c can never
// band-match (NaN or ±Inf).
func ProbeRange(c, eps float64) (lo, hi float64, ok bool) {
	return bandRange(c, eps)
}
