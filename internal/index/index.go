// Package index provides the shared window-index machinery used by every
// operator that maintains per-attribute lookup structures over a sliding
// window: the MJoin-style operator's windows (internal/window) and the
// binary-tree stages' partial-result windows (internal/dist).
//
// Two structures are provided, both tuned for the windows' access pattern —
// a steady stream of insert/remove pairs with many lookups in between:
//
//   - Hash[E]: an open-addressed hash table from canonical float64 key bits
//     to insertion-ordered FIFO entry buckets (see Hash), generalizing the
//     float-bits table that internal/window grew for the equi-probe hot
//     path. Linear probing, multiplicative (fibonacci) hashing, power-of-two
//     capacity.
//     Profiling showed the runtime map's generic float hashing dominating
//     probe-heavy workloads; a multiply and shift is an order of magnitude
//     cheaper. An emptied bucket keeps its table slot (a key that comes back
//     finds its array waiting) until a sweep — run only when a *new* key
//     finds the table three-quarters claimed — drops the dead slots, hands
//     their arrays to the next claims and re-inserts the live ones, swapping
//     between two tables while the capacity is unchanged. Sliding over a
//     stable key domain therefore allocates nothing, whether the live keys
//     fill the domain or are a small moving fraction of it.
//
//   - Sorted[E]: a key-ordered array supporting O(log n + matches) range
//     probes that return contiguous *views* (no copying), backing the typed
//     band predicate |S_l.a − S_r.a| ≤ ε. Insert/remove are binary search
//     plus a memmove — O(n) worst case, but windows hold thousands of
//     entries at most and the memmove of machine words is far cheaper than
//     the full-window scans the band predicate replaces.
//
// NaN keys are rejected by both structures (reported by KeyBits, silently
// skipped by Sorted.Add): NaN never compares equal and never satisfies a
// band, so a NaN-keyed entry could never be looked up anyway.
package index

import (
	"math"
	"math/bits"
)

// KeyBits canonicalizes a float64 key for bit-pattern hashing: ±0 collapse
// to one key, and NaN (which never compares equal, so can never match a
// probe) reports !ok.
func KeyBits(f float64) (uint64, bool) {
	if f == 0 {
		return 0, true
	}
	if f != f {
		return 0, false
	}
	return math.Float64bits(f), true
}

// Mix64 avalanches all 64 bits of canonical key bits (Murmur3/splitmix-style
// xor-fold/multiply finalizer). Shard routers modulo the result by the shard
// count; a plain multiplicative mix is not enough there, because
// small-integer float64 keys are multiples of 2^52, so the product's low
// bits — which the modulo consumes — would stay constant and every key
// would land on shard 0.
func Mix64(bits uint64) uint64 {
	bits ^= bits >> 33
	bits *= 0xFF51AFD7ED558CCD
	bits ^= bits >> 33
	bits *= 0xC4CEB9FE1A85EC53
	bits ^= bits >> 33
	return bits
}

// RangeCell quantizes a band key to its range cell of the given width, for
// range-partitioned shard routing. The clamp *saturates* — it must stay
// monotone in key so that the replication span
// [RangeCell(key−Δ), RangeCell(key+Δ)] of one tuple always encloses the
// owner cell of every band partner (a collapse-to-zero clamp would tear
// pairs straddling the clamp boundary apart). NaN keys can never satisfy a
// band predicate, so any deterministic cell works; ±Inf saturate like huge
// finite keys.
func RangeCell(key, width float64) int64 {
	v := math.Floor(key / width)
	switch {
	case math.IsNaN(v):
		return 0
	case v > 1e15:
		return int64(1e15)
	case v < -1e15:
		return -int64(1e15)
	}
	return int64(v)
}

// CellOwner maps a range cell to one of n owners (a non-negative modulo).
func CellOwner(cell int64, n int) int {
	m := int64(n)
	return int(((cell % m) + m) % m)
}

const hashMinCap = 16

// Hash is an open-addressed hash index from uint64 keys (canonical float
// bits, see KeyBits) to insertion-ordered buckets of entries. An earlier
// revision tracked every entry's bucket position in a side map for O(1)
// swap-delete; profiling showed the map's insert/delete on the window's
// steady add/remove churn costing more than it saved. Buckets are instead
// FIFO deques: sliding windows remove almost exactly in insertion order, so
// Remove's front-pop fast path is O(1), and the rare out-of-order removal
// shifts only the short prefix before the removed entry. The zero value is
// not usable; construct with NewHash.
type Hash[E comparable] struct {
	slots []hslot[E]
	n     int // occupied slots, including empty-bucket (dead) ones
	count int // live entries across all buckets
	shift uint
	// spare holds the arrays of the buckets the last sweeps found empty;
	// claim hands them out again. prev is the cleared table a sweep to the
	// same capacity left behind, for the next such sweep to move into.
	spare  [][]E
	prev   []hslot[E]
	sweeps int // sweeps run so far (the tests pin the sweep rule with it)
}

// hslot is one open-addressing slot: key plus its bucket deque — the live
// entries are data[head:]. A slot is occupied iff data is non-nil — claimed
// buckets keep a non-nil (possibly empty) slice until a sweep drops
// them, so no separate occupancy array is needed and a probe touches a
// single contiguous array instead of three parallel ones. That locality
// matters: Get is the single hottest call of the compiled probe kernel.
type hslot[E comparable] struct {
	key  uint64
	head int32
	data []E
}

// live returns the bucket's live view.
func (s *hslot[E]) live() []E { return s.data[s.head:] }

// compact moves the live region back to offset 0 once the dead prefix
// reaches half the slice, keeping appends amortized alloc-free: with the
// backing array at ≥2× the steady live size, the region slides inside it
// without ever hitting cap.
func (s *hslot[E]) compact() {
	if h := int(s.head); h >= 8 && h*2 >= len(s.data) {
		liveN := copy(s.data, s.data[h:])
		tail := s.data[liveN:]
		for i := range tail {
			var zero E
			tail[i] = zero
		}
		s.data = s.data[:liveN]
		s.head = 0
	}
}

// NewHash creates an empty hash index.
func NewHash[E comparable]() *Hash[E] {
	h := &Hash[E]{}
	h.init(hashMinCap)
	return h
}

func (h *Hash[E]) init(capacity int) {
	h.slots = make([]hslot[E], capacity)
	h.n = 0
	h.shift = 64 - uint(bits.TrailingZeros(uint(capacity)))
}

func (h *Hash[E]) hash(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> h.shift
}

// Get returns the bucket for key, or nil if absent. The returned slice is a
// view of internal storage; callers must not mutate or retain it across
// Add/Remove calls.
func (h *Hash[E]) Get(key uint64) []E {
	mask := uint64(len(h.slots) - 1)
	for i := h.hash(key); ; i = (i + 1) & mask {
		s := &h.slots[i]
		if s.data == nil {
			return nil
		}
		if s.key == key {
			return s.data[s.head:]
		}
	}
}

// Add appends e to the bucket for key. A given entry must be added at most
// once per Hash.
func (h *Hash[E]) Add(key uint64, e E) {
	s := h.bucket(key)
	s.data = append(s.data, e)
	h.count++
}

// Remove deletes e from its bucket, preserving bucket order. Sliding windows
// remove almost exactly in insertion order, so the front-pop fast path
// covers nearly every call in O(1); an out-of-order removal shifts only the
// (short) prefix in front of the removed entry. Emptied buckets keep their
// table slot and capacity; the next sweep recycles them. The key must
// be present (every Remove pairs with an earlier Add), so the slot probe
// never misses.
func (h *Hash[E]) Remove(key uint64, e E) {
	mask := uint64(len(h.slots) - 1)
	i := h.hash(key)
	for h.slots[i].key != key || h.slots[i].data == nil {
		i = (i + 1) & mask
	}
	s := &h.slots[i]
	var zero E
	if s.data[s.head] != e {
		// Out-of-order removal: shift the prefix right over the entry.
		p := int(s.head) + 1
		for s.data[p] != e {
			p++
		}
		copy(s.data[s.head+1:p+1], s.data[s.head:p])
	}
	s.data[s.head] = zero
	s.head++
	h.count--
	if int(s.head) == len(s.data) {
		s.data = s.data[:0]
		s.head = 0
	} else {
		s.compact()
	}
}

// Len returns the number of entries currently held.
func (h *Hash[E]) Len() int { return h.count }

// Reset drops all content, releasing the backing storage.
func (h *Hash[E]) Reset() {
	h.init(hashMinCap)
	h.count = 0
	h.spare, h.prev = nil, nil
}

// bucket returns a pointer to the bucket slot for key, claiming a slot if
// the key is new. Only a claim checks the load — an add to a key that owns
// a slot never rehashes — and one that finds the table three-quarters
// claimed sweeps first, then probes again.
func (h *Hash[E]) bucket(key uint64) *hslot[E] {
	mask := uint64(len(h.slots) - 1)
	for i := h.hash(key); ; i = (i + 1) & mask {
		s := &h.slots[i]
		if s.data == nil {
			if (h.n+1)*4 >= len(h.slots)*3 {
				h.sweep()
				return h.bucket(key)
			}
			s.key = key
			s.data = h.claim()
			h.n++
			return s
		}
		if s.key == key {
			return s
		}
	}
}

// claim returns an empty bucket array: one a sweep recycled, or a new one
// pre-sized so the first few appends do not reallocate.
func (h *Hash[E]) claim() []E {
	if n := len(h.spare); n > 0 {
		b := h.spare[n-1]
		h.spare[n-1] = nil
		h.spare = h.spare[:n-1]
		return b
	}
	return make([]E, 0, 4)
}

// sweep drops the dead slots accumulated since the last sweep and rehashes
// the live (non-empty) buckets into a table sized for them at ≤ 25% load.
// The emptied buckets' arrays go on the spare stack for the next claims —
// at most one per slot of the new table, so a burst of keys that never come
// back is not retained. A window whose live keys are a small moving
// fraction of its key domain sweeps to the same capacity every time: that
// case swaps between two tables, the one it leaves cleared and kept for the
// next sweep, so it allocates nothing; a resize takes a fresh table and
// keeps none.
func (h *Hash[E]) sweep() {
	h.sweeps++
	live := 0
	for i := range h.slots {
		if len(h.slots[i].live()) > 0 {
			live++
		}
	}
	newCap := hashMinCap
	for newCap < 4*(live+1) {
		newCap *= 2
	}
	old, prev := h.slots, h.prev
	h.prev = nil
	if len(prev) == newCap {
		h.slots = prev
	} else {
		h.init(newCap)
	}
	h.n = live
	mask := uint64(newCap - 1)
	for i := range old {
		switch s := &old[i]; {
		case s.data == nil:
		case len(s.live()) == 0:
			h.spare = append(h.spare, s.data)
		default:
			j := h.hash(s.key)
			for h.slots[j].data != nil {
				j = (j + 1) & mask
			}
			h.slots[j] = *s
		}
	}
	if len(h.spare) > newCap {
		clear(h.spare[newCap:])
		h.spare = h.spare[:newCap]
	}
	if len(old) == newCap {
		clear(old)
		h.prev = old
	}
}
