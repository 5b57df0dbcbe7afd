package index

import "sort"

// Sorted is a range index: entries keyed by float64, kept in key order in
// parallel arrays so a range probe [lo, hi] is a binary search returning a
// contiguous view of the entries — O(log n + matches) with zero copying.
//
// Entries with equal keys keep insertion order among themselves. NaN keys
// are silently ignored by Add (they can never satisfy a band predicate);
// Remove of a NaN key is a no-op, keeping Add/Remove symmetric.
//
// The zero value is an empty, usable index.
type Sorted[E comparable] struct {
	keys []float64
	vals []E
}

// Len returns the number of entries currently held.
func (s *Sorted[E]) Len() int { return len(s.keys) }

// Add inserts e under key, keeping key order. NaN keys are ignored.
func (s *Sorted[E]) Add(key float64, e E) {
	if key != key {
		return
	}
	// Fast path: keys arriving in non-decreasing order append at the tail.
	// Attribute values are not timestamp-correlated in general, so this is
	// just a cheap guard before the binary search, not the common case.
	if n := len(s.keys); n == 0 || s.keys[n-1] <= key {
		s.keys = append(s.keys, key)
		s.vals = append(s.vals, e)
		return
	}
	i := sort.SearchFloat64s(s.keys, key)
	// Insert after any equal keys to keep insertion order within a run.
	for i < len(s.keys) && s.keys[i] == key {
		i++
	}
	s.keys = append(s.keys, 0)
	s.vals = append(s.vals, e)
	copy(s.keys[i+1:], s.keys[i:])
	copy(s.vals[i+1:], s.vals[i:])
	s.keys[i] = key
	s.vals[i] = e
}

// Remove deletes the entry e stored under key. It is a no-op if the pair is
// absent (including NaN keys, mirroring Add).
func (s *Sorted[E]) Remove(key float64, e E) {
	if key != key {
		return
	}
	i := sort.SearchFloat64s(s.keys, key)
	for ; i < len(s.keys) && s.keys[i] == key; i++ {
		if s.vals[i] == e {
			copy(s.keys[i:], s.keys[i+1:])
			copy(s.vals[i:], s.vals[i+1:])
			last := len(s.keys) - 1
			var zero E
			s.vals[last] = zero
			s.keys = s.keys[:last]
			s.vals = s.vals[:last]
			return
		}
	}
}

// Range returns the entries with key in [lo, hi] as a contiguous view of
// internal storage, in key order (insertion order within equal keys).
// Callers must not mutate or retain the view across Add/Remove calls. A NaN
// bound yields an empty range.
func (s *Sorted[E]) Range(lo, hi float64) []E {
	if lo != lo || hi != hi || hi < lo {
		return nil
	}
	i := sort.SearchFloat64s(s.keys, lo)
	j := i + sort.Search(len(s.keys)-i, func(k int) bool { return s.keys[i+k] > hi })
	return s.vals[i:j]
}

// Reset drops all content, releasing the backing storage.
func (s *Sorted[E]) Reset() {
	s.keys = nil
	s.vals = nil
}
