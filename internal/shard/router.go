package shard

// Router is the sequential half of the sharded runtime: the driver-side
// state machine that tracks the global watermark, replays global window
// membership on bare timestamps (Ring) for the profiler's n×(e), records
// the per-interval accounting the deterministic merge consumes, and maps
// every synchronized tuple to its shard set through the planner's partition
// scheme. It performs no I/O and owns no goroutines, which is exactly what
// lets the in-process Runtime (goroutine workers, this package) and the
// networked driver session (internal/net, TCP workers) share one routing
// and replay implementation: both call Observe per tuple and dispatch the
// returned decision over their own transport.
//
// A Router is single-goroutine, like the spine that feeds it.

import (
	"repro/internal/join"
	"repro/internal/stream"
)

// Dispatch is one routing decision: where a synchronized tuple goes and as
// what. Replicas aliases router scratch and is only valid until the next
// Observe/RouteOnly call.
type Dispatch struct {
	// Drop: the tuple is out of scope everywhere (globally out-of-order and
	// older than every window); no shard needs it.
	Drop bool
	// Probe: the tuple was globally in-order and performs a full Alg. 2
	// step (expire, probe, insert) on its owner — or on every shard when
	// All is set. Otherwise the tuple is insert-only everywhere.
	Probe bool
	// Idx is the router arrival index within the current interval; valid
	// only when Probe is set.
	Idx int
	// WM is the global watermark including this tuple.
	WM stream.Time
	// All: every shard receives the tuple (probe-all for broadcast routes,
	// insert-all for their out-of-order arrivals). Owner/Replicas are
	// meaningless when set.
	All bool
	// Owner is the single probing (or, out-of-order, inserting) shard.
	Owner int
	// Replicas lists additional insert-only shards (band ±Delta overlap).
	Replicas []int
}

// Router replicates the single operator's in-order/out-of-order decisions
// and global window cardinalities, and computes shard routes.
type Router struct {
	windows []stream.Time
	scheme  join.PartitionScheme
	rule    Rule

	wm      stream.Time
	started bool
	reps    []Ring

	// Per-interval accounting, indexed by arrival idx.
	delays  []stream.Time
	crosses []int64
	resTS   []stream.Time

	// onOOO observes every globally out-of-order synchronized tuple with
	// its delay annotation (the profiler's out-of-order charge).
	onOOO func(delay stream.Time)

	// held mirrors reps with the tuples themselves when retention is on
	// (Retain): the networked driver keeps the global window contents
	// locally so checkpoints need no worker-state wire protocol.
	held []tupleRing
}

// NewRouter compiles the partition scheme from cond and builds a router
// for n shards. onOutOfOrder may be nil.
func NewRouter(n int, cond *join.Condition, windows []stream.Time, onOutOfOrder func(stream.Time)) *Router {
	if n < 1 {
		panic("shard: need at least one shard")
	}
	if len(windows) != cond.M {
		panic("shard: window count must match condition arity")
	}
	r := &Router{
		windows: windows,
		scheme:  cond.Partition(),
		reps:    make([]Ring, cond.M),
		onOOO:   onOutOfOrder,
	}
	r.rule = NewRule(n, r.scheme.Delta)
	return r
}

// Retain switches on driver-side tuple retention: held windows mirror the
// timestamp replicas exactly (same insert and expire points), giving the
// networked session a local copy of the global window contents for
// checkpoint capture. Call before the first Observe.
func (r *Router) Retain() {
	if r.held == nil {
		r.held = make([]tupleRing, len(r.reps))
	}
}

// Watermark returns the global synchronized-stream watermark onT.
func (r *Router) Watermark() stream.Time { return r.wm }

// Started reports whether any tuple has been observed.
func (r *Router) Started() bool { return r.started }

// Observe runs the router's per-tuple step — watermark update, replica
// expire/insert, interval accounting, shard-set computation — and returns
// the dispatch decision. The caller forwards the tuple accordingly; the
// returned Replicas slice is valid until the next call.
func (r *Router) Observe(e *stream.Tuple) Dispatch {
	r.started = true
	prev := r.wm
	wm := prev
	if e.TS > wm {
		wm = e.TS
	}
	r.wm = wm
	src := e.Src
	if e.TS >= prev {
		// Globally in-order: replicate the operator's expire-and-count on
		// the timestamp replicas, record the interval accounting, route.
		idx := len(r.delays)
		var nCross int64 = 1
		for j := range r.reps {
			if j == src {
				continue
			}
			bound := e.TS - r.windows[j]
			r.reps[j].Expire(bound)
			if r.held != nil {
				r.held[j].expire(bound)
			}
			nCross *= int64(r.reps[j].Len())
		}
		r.delays = append(r.delays, e.Delay)
		r.crosses = append(r.crosses, nCross)
		r.resTS = append(r.resTS, e.TS)
		r.insert(src, e)
		probeAll, owner := r.route(e)
		return Dispatch{Probe: true, Idx: idx, WM: wm, All: probeAll, Owner: owner, Replicas: r.rule.targets}
	}
	// Globally out-of-order: no probing anywhere (lines 9–10 of Alg. 2).
	if r.onOOO != nil {
		r.onOOO(e.Delay)
	}
	if e.TS < wm-r.windows[src] {
		return Dispatch{Drop: true}
	}
	r.insert(src, e)
	probeAll, owner := r.route(e)
	return Dispatch{WM: wm, All: probeAll, Owner: owner, Replicas: r.rule.targets}
}

func (r *Router) insert(src int, e *stream.Tuple) {
	r.reps[src].Insert(e.TS)
	if r.held != nil {
		r.held[src].insert(e)
	}
}

// RouteOnly computes the shard set of e without any watermark, replica or
// accounting side effect — the restore path, where window tuples re-enter
// as reconstruction rather than arrivals. Replicas is valid until the next
// Observe/RouteOnly call.
func (r *Router) RouteOnly(e *stream.Tuple) (probeAll bool, owner int, replicas []int) {
	probeAll, owner = r.route(e)
	return probeAll, owner, r.rule.targets
}

// route computes the shard set of e: either "every shard probes"
// (broadcast streams), or an owner shard plus — in band mode — replica
// targets left in the rule's scratch, valid until the next call.
func (r *Router) route(e *stream.Tuple) (probeAll bool, owner int) {
	switch {
	case r.scheme.Covered(e.Src):
		owner, _ = r.rule.Route(e.Attr(r.scheme.KeyAttr[e.Src]))
		return false, owner
	case r.scheme.Mode == join.PartitionNone && e.Src == 0:
		r.rule.targets = r.rule.targets[:0]
		return false, r.rule.hash(e.Seq)
	default:
		r.rule.targets = r.rule.targets[:0]
		return true, 0
	}
}

// Arrivals returns the number of globally in-order tuples observed in the
// current interval — the length of the merge loop.
func (r *Router) Arrivals() int { return len(r.delays) }

// Release merges the workers' accumulators for the interval's arrivals in
// (arrival, worker) order (MergeOuts) and starts the next interval: the
// results of arrival i go to emit (nil discards them), then visit receives
// i's result timestamp, delay annotation, global cross size n×(e) and
// merged count n^on(e). The caller has quiesced the workers.
func (r *Router) Release(outs []*Out[stream.Result], visit func(ts, delay stream.Time, nCross, nOn int64), emit func(stream.Result)) {
	if emit == nil {
		emit = func(stream.Result) {}
	}
	MergeOuts(outs, len(r.delays), func(i int, nOn int64) {
		if visit != nil {
			visit(r.resTS[i], r.delays[i], r.crosses[i], nOn)
		}
	}, emit)
	r.delays, r.crosses, r.resTS = r.delays[:0], r.crosses[:0], r.resTS[:0]
}

// Snapshot copies the router spine for a checkpoint: watermark, started
// flag, and the per-stream replica timestamps (verbatim — they supply the
// profiler's n×(e) and must survive stale-entry differences exactly).
func (r *Router) Snapshot() (wm stream.Time, started bool, reps [][]stream.Time) {
	reps = make([][]stream.Time, len(r.reps))
	for i := range r.reps {
		rep := &r.reps[i]
		reps[i] = append([]stream.Time(nil), rep.buf[rep.head:]...)
	}
	return r.wm, r.started, reps
}

// RestoreSpine loads a Snapshot back into a fresh router.
func (r *Router) RestoreSpine(wm stream.Time, started bool, reps [][]stream.Time) {
	r.wm = wm
	r.started = started
	for i := range r.reps {
		r.reps[i] = Ring{buf: append([]stream.Time(nil), reps[i]...)}
	}
}

// Held returns the retained tuples of stream i (Retain mode), in timestamp
// order; the slice aliases router state and is only valid until the next
// Observe.
func (r *Router) Held(i int) []*stream.Tuple { return r.held[i].live() }

// RestoreHeld loads retained windows (Retain mode). A restored in-process
// snapshot may carry expired-but-unpurged entries beyond the replica scope;
// they are pruned by the normal expire cadence and are invisible to every
// future probe, so the superset is harmless.
func (r *Router) RestoreHeld(ws [][]*stream.Tuple) {
	r.Retain()
	for i := range r.held {
		r.held[i] = tupleRing{}
		for _, e := range ws[i] {
			r.held[i].insert(e)
		}
	}
}
