// Package dist executes an m-way MSWJ as a tree of binary join operators —
// the distributed deployment shape of Sec. V of the paper. Each binary stage
// is fronted by its own Synchronizer, and every raw input stream passes
// through a K-slack buffer before entering its stage.
//
// A stage joins the partial results of its two sub-plans. A partial result
// carries, besides the constituent tuples, an expiration deadline
//
//	D = min_i (e_i.ts + W_i)
//
// — the logical time at which its earliest constituent falls out of its
// window. Expiring and probing by D rather than by the partial's (maximum)
// timestamp makes the tree produce exactly the results of the single
// MJoin-style operator whenever the buffers cover the input disorder: a
// partial is matchable precisely while every constituent is still inside
// its own window.
//
// PlanTree (plantree.go) is the one executor: it runs any binary shape —
// the left-deep spine of Sec. V is Spine(m) — optionally with key-sharded
// stages; AdaptivePlanTree puts the quality-driven feedback loop in charge
// of the buffer sizes.
package dist

import (
	"repro/internal/index"
	"repro/internal/pq"
	"repro/internal/stream"
)

// Partial is a complete join result handed to the sink: Parts holds one
// tuple per stream, in stream order. TS is the maximum constituent timestamp
// (the MSWJ result timestamp) and Delay the delay annotation of the arrival
// that produced it.
//
// A Partial handed to a sink is the sink's to keep, under the contract of
// stream.Result.Tuples: Parts is never reused or written again, and its
// capacity equals its length, so appending to it copies. Partials are carved
// several to an allocation; retaining one keeps that block — and the tuples
// of the results delivered next to it — reachable.
type Partial struct {
	TS    stream.Time
	Delay stream.Time
	Parts []*stream.Tuple
}

// event is one unit of stage input: a raw tuple or a partial from a child
// stage. parts is the m-length sparse constituent list (nil = unbound).
type event struct {
	ts       stream.Time
	deadline stream.Time // min_i (e_i.ts + W_i) over constituents
	delay    stream.Time
	ord      uint64 // stage-local arrival order, breaks timestamp ties
	key      float64
	parts    []*stream.Tuple
}

// prodHookFunc observes one synchronized stage input: the stage index, the
// event's timestamp and delay annotation, the stage-local cross size n×(e)
// (live opposing-window entries) and derived-result count n^on(e) for
// in-order events, or inOrder=false (no probe) for out-of-order ones. It is
// the tree's equivalent of the MJoin operator's productivity hook, feeding
// the per-scope Tuple-Productivity Profilers of the feedback loop.
type prodHookFunc func(stage int, ts, delay stream.Time, nCross, nOn int64, inOrder bool)

const (
	sideLeft  = 0
	sideRight = 1
)

// arrivalKey is a stage Synchronizer's order, (ts, ord); deadlineKey a
// window's, deadline alone.
func arrivalKey(ev *event) (int64, uint64)  { return int64(ev.ts), ev.ord }
func deadlineKey(ev *event) (int64, uint64) { return int64(ev.deadline), 0 }

// pwindow holds the live entries of one stage input in a pq.Queue by
// expiration deadline, so expiry never scans: every in-order leaf event —
// deadline = ts + W, monotone behind a K-slack buffer — extends the queue's
// run, and only late leaf events and partials whose earliest member is old
// are heap-sorted. Keyed on the first lookup, the entries also sit in the
// shared index structures of internal/index — the open-addressed hash on
// equi stages, a one-dimensional band grid (its chains in (deadline, ord)
// order, so expiry pops heads) on band-only stages — the same structures
// the MJoin-style operator's windows use.
type pwindow struct {
	byDeadline pq.Queue[*event]
	idx        *index.Hash[*event] // nil unless the stage has an equi lookup
	grid       *index.Grid[*event] // nil unless the stage is band-only
	all        []*event            // candidates' scratch on a stage without a hash
	// free, when set, receives every expired event — the stage arena's
	// recycle hook. Only driver-thread windows set it.
	free func(*event)
}

// newPwindow builds a stage input window: hash-indexed when indexed, else
// band-indexed by a grid of width eps when banded.
func newPwindow(indexed, banded bool, eps float64) *pwindow {
	w := &pwindow{byDeadline: pq.NewQueue(deadlineKey)}
	if indexed {
		w.idx = index.NewHash[*event]()
	}
	if banded {
		w.grid = index.NewGrid(expiresBefore, eps)
	}
	return w
}

// expiresBefore is a band grid's chain order: deadline, then arrival.
func expiresBefore(a, b *event) bool {
	return a.deadline < b.deadline || a.deadline == b.deadline && a.ord < b.ord
}

// len returns the number of entries held, expired-but-unpurged included.
func (w *pwindow) len() int { return w.byDeadline.Len() }

// appendLive appends every held entry to dst, in no particular order.
func (w *pwindow) appendLive(dst []*event) []*event { return w.byDeadline.AppendValues(dst) }

func (w *pwindow) insert(ev *event) {
	w.byDeadline.Push(int64(ev.deadline), 0, ev)
	if w.grid != nil {
		// Grid.Add skips non-finite keys itself; they never band-match.
		w.grid.Add(ev.key, 0, ev)
	}
	if w.idx == nil {
		return
	}
	// KeyBits reports !ok for NaN, which can never equi-match; such entries
	// stay out of the index entirely.
	if k, ok := index.KeyBits(ev.key); ok {
		w.idx.Add(k, ev)
	}
}

// expire removes every entry whose deadline passed: its earliest constituent
// is no longer inside its window at time t.
func (w *pwindow) expire(t stream.Time) {
	for w.byDeadline.Len() > 0 && stream.Time(w.byDeadline.Front().Key) < t {
		w.drop(w.byDeadline.Pop())
	}
}

// drop takes an expired entry out of the indexes and hands it to free.
func (w *pwindow) drop(ev *event) {
	if w.grid != nil {
		w.grid.Remove(ev.key, 0, ev)
	}
	if w.idx != nil {
		if k, ok := index.KeyBits(ev.key); ok {
			w.idx.Remove(k, ev)
		}
	}
	if w.free != nil {
		w.free(ev)
	}
}

// candidates returns the entries that can match key: the hash bucket on equi
// stages, the exact members of the grid's band around key on band-only
// stages (in the grid's cell, then (deadline, ord) order), every held entry
// otherwise (in no specified order). Callers re-check the deadline.
func (w *pwindow) candidates(key float64) []*event {
	switch {
	case w.idx != nil:
		k, ok := index.KeyBits(key)
		if !ok {
			return nil
		}
		return w.idx.Get(k)
	case w.grid != nil:
		w.all = w.grid.AppendBand(w.all[:0], key, 0)
	default:
		w.all = w.appendLive(w.all[:0])
	}
	return w.all
}
