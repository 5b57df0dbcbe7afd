package fifo

import (
	"fmt"
	"slices"
	"testing"
)

// refSkip is Skip as it was before the marks: it removes the r oldest
// entries by walking every one of their tags, retiring each block it
// empties on the way. The differentials hold Skip to it: the same head,
// tail and blocks after every skip.
func refSkip(q *Pairs, r int) {
	if r == 0 {
		return
	}
	q.n -= r
	blk, p := q.blocks[0], q.head
	for ; r > 0; r-- {
		tag := uint(blk[p%BlockBytes])
		if p += 1 + tag&15 + tag>>4; p > last {
			q.retire()
			blk, p = q.blocks[0], 0
		}
	}
	q.head = p
}

// sameLayout reports how q differs from ref, a queue given the same
// operations with refSkip in place of Skip, or "" if it does not: the head,
// the tail, the length and the number of blocks must agree.
func sameLayout(q, ref *Pairs) string {
	if q.head != ref.head || q.tail != ref.tail || q.n != ref.n || len(q.blocks) != len(ref.blocks) {
		return fmt.Sprintf("head/tail/len/blocks %d/%d/%d/%d, reference %d/%d/%d/%d",
			q.head, q.tail, q.n, len(q.blocks), ref.head, ref.tail, ref.n, len(ref.blocks))
	}
	return ""
}

// BenchmarkSkip prices one Skip(r) of x3-sized entries (2 to 4 bytes) from a
// queue that keeps 71 more, the mean a cut on x3 keeps: "marks" is Skip,
// "walk" the tag walk it replaced. r = 417 is the mean a cut on x3 removes. Each op is one skip and a rewind — the
// queue's fields and its block order put back — so no push is timed.
func BenchmarkSkip(b *testing.B) {
	for _, r := range []int{64, 417, 4096} {
		for _, kind := range []string{"marks", "walk"} {
			b.Run(fmt.Sprintf("r=%d/%s", r, kind), func(b *testing.B) {
				skip := (*Pairs).Skip
				if kind == "walk" {
					skip = refSkip
				}
				var q Pairs
				for i := range r + 71 {
					q.Push(int64(i*37%200), int64(i*11%50))
				}
				saved, order := q, slices.Clone(q.blocks)
				b.ResetTimer()
				for range b.N {
					skip(&q, r)
					q = saved
					copy(q.blocks, order)
				}
			})
		}
	}
}
