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

func eventLess(a, b *event) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	return a.ord < b.ord
}

// pwindow holds the live entries of one stage input, ordered by expiration
// deadline so expiry never scans. The order only has to sort what arrives
// out of it: an entry whose deadline is at or past the newest in-order
// entry's — every in-order leaf event, deadline = ts + W being monotone
// behind a K-slack buffer — is appended to a FIFO run, and only the rest
// (late leaf events, partials whose earliest member is old) go to a 4-ary
// late heap. Keyed on the first lookup, the entries also sit in the shared
// index structures of internal/index — the open-addressed hash on equi
// stages, the sorted range index on band-only stages — the same structures
// the MJoin-style operator's windows use.
type pwindow struct {
	inorder pq.Run[*event]
	late    pq.Heap[*event]
	idx     *index.Hash[*event]   // nil unless the stage has an equi lookup
	srt     *index.Sorted[*event] // nil unless the stage is band-only
	all     []*event              // candidates' scratch on a stage with neither
	// free, when set, receives every expired event — the stage arena's
	// recycle hook. Only driver-thread windows set it.
	free func(*event)
}

func newPwindow(indexed, banded bool) *pwindow {
	w := &pwindow{}
	if indexed {
		w.idx = index.NewHash[*event]()
	}
	if banded {
		w.srt = &index.Sorted[*event]{}
	}
	return w
}

// len returns the number of entries held, expired-but-unpurged included.
func (w *pwindow) len() int { return w.inorder.Len() + w.late.Len() }

// appendLive appends every held entry to dst, in no particular order.
func (w *pwindow) appendLive(dst []*event) []*event {
	return w.late.AppendValues(append(dst, w.inorder.Live()...))
}

func (w *pwindow) insert(ev *event) {
	if w.inorder.Len() == 0 || ev.deadline >= w.inorder.Back().deadline {
		w.inorder.Push(ev)
	} else {
		w.late.Push(int64(ev.deadline), 0, ev)
	}
	if w.srt != nil {
		// Sorted.Add skips NaN keys itself; a NaN can never band-match.
		w.srt.Add(ev.key, ev)
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
// is no longer inside its window at time t. The run's expired prefix goes
// first, then the late heap's; nothing depends on the order among them.
func (w *pwindow) expire(t stream.Time) {
	for w.inorder.Len() > 0 && w.inorder.Front().deadline < t {
		w.drop(w.inorder.Pop())
	}
	for w.late.Len() > 0 && stream.Time(w.late.Peek().Key) < t {
		w.drop(w.late.Pop())
	}
}

// drop takes an expired entry out of the indexes and hands it to free.
func (w *pwindow) drop(ev *event) {
	if w.srt != nil {
		w.srt.Remove(ev.key, ev)
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
// stages, every held entry otherwise (in no specified order; callers
// re-check the deadline).
func (w *pwindow) candidates(key float64) []*event {
	if w.idx != nil {
		k, ok := index.KeyBits(key)
		if !ok {
			return nil
		}
		return w.idx.Get(k)
	}
	w.all = w.appendLive(w.all[:0])
	return w.all
}
