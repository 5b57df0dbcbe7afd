// Package fifo is the queue behind the per-arrival histories of the
// feedback loop: the Statistics Manager's R^stat (delay and skew per raw
// arrival) and the Result-Size Monitor's produced-result points.
//
// Both histories slide — pushed at the newest end, popped at the oldest —
// and both shrink and regrow over a run. Their values are small integers
// far more often than not (an in-order arrival has delay 0), so a Pairs
// queue stores an entry as two zigzag varints in tagged form: one tag byte
// holds both values' lengths, 0 to 8 bytes each, and the values follow in
// as many little-endian bytes. An entry takes 2 to 5 bytes on the gated
// feeds where a pair of int64s took 16, and encoding and decoding take no
// branch on the lengths, which vary irregularly from entry to entry.
//
// Entries are written into recycled fixed-size byte blocks. An entry never
// straddles two blocks: a block whose free bytes could not hold the longest
// entry is closed, and writer and reader apply the same rule, so no block
// records where its entries end. Emptied blocks are kept and reused, so the
// queue retains its live high-water mark once, allocates each block once,
// allocates nothing once warm and never copies an entry.
//
// Each entry's start depends on the previous entry's tag, so a Pop per
// entry decodes both values and walks every tag. Skip does not: Push
// records the absolute byte start of every 32nd entry in a fixed ring of
// marks, the newest 32, and Skip(r) jumps to the last mark at or below its
// target, retires the blocks it passes and walks fewer than 32 tags. Only
// a target more than ≈ 1 000 entries behind the tail, past the oldest mark
// kept, walks from the head as before. The marks are derived state, 128
// bytes that are never allocated on their own: a restore, which re-pushes
// the entries, rebuilds them. R^stat's bulk trims use Skip, and read the
// kept entries back in batches through a Reader.
package fifo

import (
	"encoding/binary"
	"iter"
	"math/bits"
)

const (
	// BlockBytes is the allocation unit.
	BlockBytes = 4096
	// MaxEntry is the longest encoded entry: the tag and two 8-byte values.
	MaxEntry = 17
	// last is the last offset of a block at which an entry may start. The
	// codec reads and writes whole 8-byte words, so an entry may touch up to
	// MaxEntry bytes past its start whatever its length.
	last = BlockBytes - MaxEntry
	// stride is the spacing of Skip's marks, in entries, and nmarks how many
	// of the newest a queue keeps.
	stride, nmarks = 32, 32
)

type block = [BlockBytes]byte

// Pairs is a FIFO of (int64, int64) entries. blocks holds the live blocks,
// oldest first, followed by the spare ones, and is never trimmed. head is
// the offset of the oldest entry in blocks[0]; tail is the offset one past
// the newest, counted from the start of blocks[0], and always at a point
// where an entry may start. The zero Pairs is empty and ready to use.
//
// The rest is Skip's index. base is the absolute offset of blocks[0] — the
// bytes retired so far — and pushed counts the entries ever pushed, so the
// head is entry pushed − n. For the newest nmarks multiples e of stride
// below pushed, marks[e/stride%nmarks] holds entry e's absolute start
// modulo 2³², which the live bytes never span.
type Pairs struct {
	blocks []*block
	head   uint
	tail   uint
	n      int

	base, pushed uint
	marks        [nmarks]uint32
}

// Len returns the number of live entries.
func (q *Pairs) Len() int { return q.n }

// Blocks returns the number of blocks held, live and spare.
func (q *Pairs) Blocks() int { return len(q.blocks) }

// Push appends (a, b) as the newest entry, allocating the tail's block if
// need be.
func (q *Pairs) Push(a, b int64) {
	i := q.tail / BlockBytes
	if i == uint(len(q.blocks)) {
		q.blocks = append(q.blocks, new(block))
	}
	if q.pushed%stride == 0 {
		q.marks[q.pushed/stride%nmarks] = uint32(q.base + q.tail)
	}
	q.pushed++
	blk, p := q.blocks[i], q.tail%BlockBytes
	ua, ub := zigzag(a), zigzag(b)
	la, lb := uint(bits.Len64(ua)+7)/8, uint(bits.Len64(ub)+7)/8
	blk[p] = byte(la | lb<<4)
	binary.LittleEndian.PutUint64(blk[p+1:], ua)
	binary.LittleEndian.PutUint64(blk[p+1+la:], ub)
	p += 1 + la + lb
	if p > last {
		p = BlockBytes // close the block
	}
	q.tail = i*BlockBytes + p
	q.n++
}

// Front returns the oldest entry. The queue must not be empty.
func (q *Pairs) Front() (a, b int64) {
	ua, ub, _ := get(q.blocks[0], q.head)
	return unzigzag(ua), unzigzag(ub)
}

// Pop removes and returns the oldest entry. The queue must not be empty.
func (q *Pairs) Pop() (a, b int64) {
	ua, ub, next := get(q.blocks[0], q.head)
	q.advance(next)
	return unzigzag(ua), unzigzag(ub)
}

// Drop removes the oldest entry, reading only its tag: for a caller that
// has read it with Front. The queue must not be empty.
func (q *Pairs) Drop() {
	tag := uint(q.blocks[0][q.head%BlockBytes])
	q.advance(q.head + 1 + tag&15 + tag>>4)
}

// Skip removes the r oldest entries: it jumps to the last mark at or below
// the new head, if one is kept and newer than the head, or starts from the
// head, and walks the tags from there. The queue must hold at least r
// entries; Skip(0) is a no-op even on a zero Pairs, which holds no block
// yet.
func (q *Pairs) Skip(r int) {
	if r == 0 {
		return
	}
	q.n -= r
	if q.n == 0 { // the head meets the tail
		for q.tail >= BlockBytes {
			q.retire()
		}
		q.head = q.tail
		return
	}
	from := q.pushed - uint(q.n+r) // the head's entry number
	to := from + uint(r)
	p := q.head // offset of entry from, counted from the start of blocks[0]
	// Mark e is kept until entry e + nmarks·stride is pushed.
	if e := to - to%stride; e > from && e+nmarks*stride >= q.pushed {
		p, from = uint(q.marks[e/stride%nmarks]-uint32(q.base)), e
	}
	i, p := p/BlockBytes, p%BlockBytes
	blk := q.blocks[i]
	for k := to - from; k > 0; k-- {
		tag := uint(blk[p%BlockBytes])
		if p += 1 + tag&15 + tag>>4; p > last { // the rest of the block is closed
			i, p = i+1, 0
			blk = q.blocks[i]
		}
	}
	for ; i > 0; i-- {
		q.retire()
	}
	q.head = p
}

// advance moves the head to next, past the oldest entry.
func (q *Pairs) advance(next uint) {
	q.head = next
	q.n--
	if next > last {
		q.retire()
		q.head = 0
	}
}

// retire moves the emptied oldest block behind the spares.
func (q *Pairs) retire() {
	blk := q.blocks[0]
	copy(q.blocks, q.blocks[1:])
	q.blocks[len(q.blocks)-1] = blk
	q.tail -= BlockBytes
	q.base += BlockBytes
}

// All yields the live entries, oldest first. The queue must not change
// while it is iterated.
func (q *Pairs) All() iter.Seq2[int64, int64] {
	return func(yield func(a, b int64) bool) {
		rd := q.Reader()
		var a, b [1]int64
		for range q.n {
			if rd.Read(a[:], b[:]); !yield(a[0], b[0]) {
				return
			}
		}
	}
}

// Reader reads a queue's live entries, oldest first, in batches, without
// removing them. The queue must not change while it is read.
type Reader struct {
	blocks []*block
	i      int  // the next entry's block
	p      uint // and its offset there
}

// Reader returns a Reader at the oldest entry.
func (q *Pairs) Reader() Reader { return Reader{q.blocks, 0, q.head} }

// Read decodes the next len(a) entries into a and b, which must be as long.
// The caller counts: it must not read past the queue's Len entries. One
// call decodes a batch with the position in registers; an entry's start
// depends on the previous entry's tag, so a call per entry would put a
// store and a load of it on that chain.
func (r *Reader) Read(a, b []int64) {
	b = b[:len(a)]
	blk, p := r.blocks[r.i], r.p
	for k := range a {
		ua, ub, next := get(blk, p)
		a[k], b[k] = unzigzag(ua), unzigzag(ub)
		if p = next; p > last {
			r.i, p = r.i+1, 0
			if r.i < len(r.blocks) { // the last entry may close the last block
				blk = r.blocks[r.i]
			}
		}
	}
	r.p = p
}

// Reset empties the queue and keeps every block as a spare. The marks of
// the entries it drops are older than the next head, so Skip ignores them.
func (q *Pairs) Reset() { q.head, q.tail, q.n = 0, 0, 0 }

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// get decodes the entry at offset p ≤ last of blk into its two zigzagged
// values and returns them and the offset past it. A value of length l is
// the low l bytes of the word at its start, cut by a table of masks rather
// than a shift by a variable count, which keeps get small enough to inline:
// a Pop is one call. Reducing p modulo BlockBytes, here and in Drop,
// changes nothing but lets the compiler drop the tag's bounds check.
func get(blk *block, p uint) (ua, ub uint64, next uint) {
	tag := uint(blk[p%BlockBytes])
	la, lb := tag&15, tag>>4
	return word(blk, p+1) & lenMask[la], word(blk, p+1+la) & lenMask[lb], p + 1 + la + lb
}

// lenMask[l] keeps the low l bytes of a word.
var lenMask = [16]uint64{0, 1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<56 - 1, 1<<64 - 1}

func word(blk *block, p uint) uint64 { return binary.LittleEndian.Uint64(blk[p:]) }
