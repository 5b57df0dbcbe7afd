package shard

import "repro/internal/stream"

// Ring is the one membership multiset behind n×(e): a window's bare
// expiry keys, ordered, in a head-indexed buffer. The flat router keeps one
// per stream, keyed by timestamp; a sharded tree stage keeps one per side,
// keyed by deadline. Sharding splits each window across workers, but the
// profiler needs the global window cardinalities at every in-order arrival
// — the product of the per-shard cardinalities is not the global cross
// size. Replaying the expire/insert decisions on bare keys costs a few
// nanoseconds per tuple and keeps the merged statistics bit-for-bit equal
// to an unsharded run.
type Ring struct {
	buf  []stream.Time // live region buf[head:], non-decreasing
	head int
}

// Len returns the number of live keys.
func (r *Ring) Len() int { return len(r.buf) - r.head }

// Live returns the live keys in order; the slice aliases the ring.
func (r *Ring) Live() []stream.Time { return r.buf[r.head:] }

// Insert adds t, keeping order. Keys arrive mostly in order, so nearly
// every insert is a tail append; the residue falls back to binary
// insertion.
func (r *Ring) Insert(t stream.Time) {
	if n := len(r.buf); n == r.head || r.buf[n-1] <= t {
		r.buf = append(r.buf, t)
		return
	}
	lo, hi := r.head, len(r.buf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.buf[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r.buf = append(r.buf, 0)
	copy(r.buf[lo+1:], r.buf[lo:])
	r.buf[lo] = t
}

// Expire drops every key strictly below bound (the shared boundary
// convention: scope [onT − W, onT], expired means strictly older).
func (r *Ring) Expire(bound stream.Time) {
	h := r.head
	for h < len(r.buf) && r.buf[h] < bound {
		h++
	}
	r.head = h
	if r.head >= 64 && r.head >= len(r.buf)-r.head {
		n := copy(r.buf, r.buf[r.head:])
		r.buf = r.buf[:n]
		r.head = 0
	}
}

// tupleRing is Ring over the tuples themselves: the router's optional
// retention structure (Router.Retain) mirroring one stream's global window
// membership so the networked driver can capture checkpoints without
// pulling window state off the workers. Same ordering and expiry rules as
// Ring; expired slots are nilled so the ring never pins dead tuples.
type tupleRing struct {
	buf  []*stream.Tuple // live region buf[head:], non-decreasing TS
	head int
}

// live returns the live region.
func (r *tupleRing) live() []*stream.Tuple { return r.buf[r.head:] }

// insert adds e, keeping timestamp order (appending after equal stamps,
// like Ring, so retention and replicas stay in lockstep).
func (r *tupleRing) insert(e *stream.Tuple) {
	if n := len(r.buf); n == r.head || r.buf[n-1].TS <= e.TS {
		r.buf = append(r.buf, e)
		return
	}
	lo, hi := r.head, len(r.buf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.buf[mid].TS <= e.TS {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r.buf = append(r.buf, nil)
	copy(r.buf[lo+1:], r.buf[lo:])
	r.buf[lo] = e
}

// expire drops every tuple with TS strictly older than bound.
func (r *tupleRing) expire(bound stream.Time) {
	h := r.head
	for h < len(r.buf) && r.buf[h].TS < bound {
		r.buf[h] = nil
		h++
	}
	r.head = h
	if r.head >= 64 && r.head >= len(r.buf)-r.head {
		n := copy(r.buf, r.buf[r.head:])
		clear(r.buf[n:])
		r.buf = r.buf[:n]
		r.head = 0
	}
}
