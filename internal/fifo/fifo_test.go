package fifo

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// encLen is the encoded length of the entry (a, b): the tag and each
// zigzagged value's significant bytes.
func encLen(p [2]int64) int {
	return 1 + (bits.Len64(zigzag(p[0]))+7)/8 + (bits.Len64(zigzag(p[1]))+7)/8
}

// value draws a value of a random encoded length, 0 to 8 bytes, biased to
// the edges of each length and to both signs.
func value(rng *rand.Rand) int64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return []int64{math.MaxInt64, math.MinInt64, 1 << 62, -1 << 62}[rng.Intn(4)]
	}
	v := int64(1)<<rng.Intn(63) - int64(rng.Intn(2)) // 2^k or 2^k − 1: either side of a length edge
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// skipCount returns how many entries a Skip of the given kind removes from
// a queue holding want: none, one, the fewest whose encoded bytes fill a
// block — so the skip crosses at least one closed block — or all. A queue
// too short for the kind gives all.
func skipCount(kind int, want [][2]int64) int {
	switch kind {
	case 0:
		return 0
	case 1:
		return min(1, len(want))
	case 2:
		for k, bytes := 0, 0; k < len(want); k++ {
			if bytes += encLen(want[k]); bytes >= BlockBytes {
				return k + 1
			}
		}
	}
	return len(want)
}

// TestQueueMatchesSlice drives a Pairs and a plain slice with one random
// sequence of pushes, peeks, pops, drops, skips, iterations and resets,
// across many block boundaries and with entries of every encoded length, and
// holds every entry and the length to the slice's, and the retained blocks
// to what the high-water mark of live encoded bytes needs. A second Pairs
// takes the same operations with refSkip, the tag walk, in place of Skip,
// and the two must agree on head, tail and block order after every step.
// The skips remove none, one, a block's worth or all of the entries, most of
// them from a queue too long for any kept mark to reach; end near the oldest
// kept mark, on either side of it (more than a stride past the head); remove
// all at a pushed count that is a multiple of the stride; or
// follow a Reset and a refill. A Skip that reads one entry short, one that
// forgets to retire the blocks it empties, marks a stride off by one or a
// mark read after the ring has overwritten it fails it.
func TestQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q, ref Pairs
	var want [][2]int64
	var skips [7]int   // nonempty skips of each kind
	live, peak := 0, 0 // encoded bytes
	push := func(v [2]int64) {
		q.Push(v[0], v[1])
		ref.Push(v[0], v[1])
		want = append(want, v)
		live += encLen(v)
	}
	skip := func(k int) {
		q.Skip(k)
		refSkip(&ref, k)
		for _, v := range want[:k] {
			live -= encLen(v)
		}
		want = want[k:]
	}
	for step := 0; step < 200000; step++ {
		switch r := rng.Intn(1000); {
		case r < 500+200*((step/20000)%2): // phases of growth and shrinkage
			push([2]int64{value(rng), value(rng)})
		case r < 950: // Front then Drop, or Pop
			if len(want) > 0 {
				if a, b := q.Front(); [2]int64{a, b} != want[0] {
					t.Fatalf("step %d: Front = %v, want %v", step, [2]int64{a, b}, want[0])
				}
				if r%2 == 0 {
					q.Drop()
				} else if a, b := q.Pop(); [2]int64{a, b} != want[0] {
					t.Fatalf("step %d: Pop = %v, want %v", step, [2]int64{a, b}, want[0])
				}
				ref.Drop()
				live -= encLen(want[0])
				want = want[1:]
			}
		case r < 999:
			i := 0
			for a, b := range q.All() {
				if [2]int64{a, b} != want[i] {
					t.Fatalf("step %d: entry %d = %v, want %v", step, i, [2]int64{a, b}, want[i])
				}
				i++
			}
			if i != len(want) {
				t.Fatalf("step %d: All yielded %d entries, want %d", step, i, len(want))
			}
		case step%2 == 0:
			q.Reset()
			ref.Reset()
			want, live = want[:0], 0
		default: // a Skip of each kind in turn
			kind := step / 2 % len(skips)
			switch kind {
			case 4: // near the oldest kept mark, past the head, some entries left
				if k := len(want) - 1 - (nmarks-1)*stride - rng.Intn(3*stride); k > stride {
					skip(k)
					skips[kind]++
				}
			case 5: // all, at a pushed count that is a multiple of the stride
				for q.pushed%stride != 0 {
					push([2]int64{value(rng), value(rng)})
				}
				if len(want) > 0 {
					skips[kind]++
				}
				skip(len(want))
			case 6: // after a Reset and a refill
				q.Reset()
				ref.Reset()
				want, live = want[:0], 0
				for range 50 + rng.Intn(250) {
					push([2]int64{value(rng), value(rng)})
				}
				skip(stride + rng.Intn(len(want)-stride))
				skips[kind]++
			default:
				k := skipCount(kind, want)
				if len(want) > 0 && (kind != 2 || k < len(want)) {
					skips[kind]++
				}
				skip(k)
			}
		}
		if q.Len() != len(want) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(want))
		}
		if d := sameLayout(&q, &ref); d != "" {
			t.Fatalf("step %d: %s", step, d)
		}
		if len(want) > 0 {
			if a, b := q.Front(); [2]int64{a, b} != want[0] {
				t.Fatalf("step %d: Front = %v, want %v", step, [2]int64{a, b}, want[0])
			}
		}
		peak = max(peak, live)
		// Every block but the newest is closed only once fewer than MaxEntry
		// bytes are free, and the oldest may be partly popped.
		if b := q.Blocks(); b > peak/(BlockBytes-MaxEntry)+2 {
			t.Fatalf("step %d: %d blocks retained for a high-water mark of %d bytes", step, b, peak)
		}
	}
	if peak < 4*BlockBytes {
		t.Fatalf("high-water mark %d bytes: the queue never spanned several blocks", peak)
	}
	t.Logf("high-water mark %d bytes; skips of none, one, a block's worth, all, near the oldest kept mark, all at a stride multiple, after a Reset: %v", peak, skips)
	if slices.Contains(skips[:], 0) {
		t.Fatalf("skips of each kind on a nonempty queue: %v; each must run", skips)
	}
}
