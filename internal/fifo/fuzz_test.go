package fifo

import "testing"

// FuzzPairs runs a fuzzed sequence of operations on a Pairs and on a plain
// slice and holds the queue to the slice after every one: Len, every Front
// and Pop, every iteration, and the retained blocks to what the high-water
// mark of live encoded bytes needs; and to a second Pairs that skips with
// refSkip, the tag walk: the same head, tail and block order. Each operation
// is one byte whose low three bits pick it, and whose high five bits and the
// bytes after it are its arguments:
//
//	0, 6  Push one entry — two values, one byte each (below)
//	1     Push a run of 16·(1 + high bits) entries counting up from two values
//	2     Pop
//	3     Front, then Drop
//	4     Skip min(len, next byte · (1 + high bits)): up to 4 080 entries,
//	      across closed blocks, or all
//	5     Reset if the high bits are 0, otherwise iterate with All
//	7     Skip all; with high bits ≠ 0, first push (0, 0) until the pushed
//	      count is a multiple of the stride
//
// A value byte v gives ±(2^(v&63) − (v>>6 & 1)), the sign from v>>7: either
// side of every encoded length's edge.
func FuzzPairs(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		value := func() int64 {
			b := next()
			v := int64(1)<<(b&63) - int64(b>>6&1)
			if b>>7 != 0 {
				v = -v
			}
			return v
		}
		var q, ref Pairs
		var want [][2]int64
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
		for n := 0; len(ops) > 0; n++ {
			op := next()
			switch arg := int(op >> 3); op & 7 {
			case 0, 6:
				push([2]int64{value(), value()})
			case 1:
				a, b := value(), value()
				for i := int64(0); i < 16*int64(1+arg); i++ {
					push([2]int64{a + i, b - i})
				}
			case 2:
				if len(want) > 0 {
					if a, b := q.Pop(); [2]int64{a, b} != want[0] {
						t.Fatalf("op %d: Pop = %v, want %v", n, [2]int64{a, b}, want[0])
					}
					ref.Pop()
					live -= encLen(want[0])
					want = want[1:]
				}
			case 3:
				if len(want) > 0 {
					if a, b := q.Front(); [2]int64{a, b} != want[0] {
						t.Fatalf("op %d: Front = %v, want %v", n, [2]int64{a, b}, want[0])
					}
					q.Drop()
					ref.Drop()
					live -= encLen(want[0])
					want = want[1:]
				}
			case 4:
				skip(min(len(want), int(next())*(1+arg)))
			case 5:
				if arg == 0 {
					q.Reset()
					ref.Reset()
					want, live = want[:0], 0
					break
				}
				i := 0
				for a, b := range q.All() {
					if i >= len(want) || [2]int64{a, b} != want[i] {
						t.Fatalf("op %d: All yields %v as entry %d of %d", n, [2]int64{a, b}, i, len(want))
					}
					i++
				}
				if i != len(want) {
					t.Fatalf("op %d: All yielded %d entries, want %d", n, i, len(want))
				}
			case 7:
				for arg != 0 && q.pushed%stride != 0 {
					push([2]int64{0, 0})
				}
				skip(len(want))
			}
			if q.Len() != len(want) {
				t.Fatalf("op %d: Len = %d, want %d", n, q.Len(), len(want))
			}
			if d := sameLayout(&q, &ref); d != "" {
				t.Fatalf("op %d: %s", n, d)
			}
			if len(want) > 0 {
				if a, b := q.Front(); [2]int64{a, b} != want[0] {
					t.Fatalf("op %d: Front = %v, want %v", n, [2]int64{a, b}, want[0])
				}
			}
			peak = max(peak, live)
			if b := q.Blocks(); b > peak/(BlockBytes-MaxEntry)+2 {
				t.Fatalf("op %d: %d blocks retained for a high-water mark of %d bytes", n, b, peak)
			}
		}
		i := 0
		for a, b := range q.All() {
			if i >= len(want) || [2]int64{a, b} != want[i] {
				t.Fatalf("end: All yields %v as entry %d of %d", [2]int64{a, b}, i, len(want))
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("end: All yielded %d entries, want %d", i, len(want))
		}
	})
}
