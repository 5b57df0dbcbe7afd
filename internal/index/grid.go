package index

import (
	"math"
	"math/bits"
)

// cellMax bounds a grid cell coordinate: RangeCell's saturating map clamped
// into int32, so two coordinates pack injectively into one uint64 cell key.
const cellMax = 1<<31 - 1

// BandCell maps a band key to its grid cell coordinate for band width eps:
// ⌊v/eps⌋, saturated like RangeCell and clamped to ±cellMax. The map is
// monotone in v, which is what the probe's coverage argument needs (see
// Grid). With eps = 0 the band is exact equality — a − c = 0 ⇔ a = c for
// finite floats — so the cell is the key's canonical bits folded to 32: one
// cell per value, where a fold collision only costs an extra exact check.
func BandCell(v, eps float64) int64 {
	if eps == 0 {
		b, _ := KeyBits(v)
		return int64(int32(uint32(b ^ b>>32)))
	}
	return min(max(RangeCell(v, eps), -cellMax), cellMax)
}

// bandRange returns probe bounds guaranteed to cover every value a with
// fl(a − c) ∈ [−eps, eps]. The naive bounds fl(c−eps), fl(c+eps) can round
// past values the difference form accepts, so they are widened by a relative
// slack of ~5 ulps of the larger magnitude. A non-finite center can never
// band-match a stored (finite) key and reports !ok.
func bandRange(c, eps float64) (lo, hi float64, ok bool) {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return 0, 0, false
	}
	slack := (math.Abs(c) + eps) * 1e-15
	return c - eps - slack, c + eps + slack, true
}

// bandSpan returns the cells [lo, hi] a probe centred on c must visit in one
// dimension of width eps: the cells of bandRange's widened bounds — at most
// four, three but for bounds on cell edges — or c's own cell when eps = 0.
// Bounds that overflow are cut back to the largest finite magnitude, past
// which no stored key lies, so a huge eps spans three cells, not 2³².
func bandSpan(c, eps float64) (lo, hi int64, ok bool) {
	if eps == 0 {
		if !finite(c) {
			return 0, 0, false
		}
		k := BandCell(c, 0)
		return k, k, true
	}
	l, h, ok := bandRange(c, eps)
	if !ok {
		return 0, 0, false
	}
	l, h = max(l, -math.MaxFloat64), min(h, math.MaxFloat64)
	return BandCell(l, eps), BandCell(h, eps), true
}

// cellKey packs two cell coordinates into one table key.
func cellKey(x, y int64) uint64 { return uint64(uint32(x))<<32 | uint64(uint32(y)) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Grid is a band index: entries keyed by one or two float64 band keys a, b,
// bucketed by the cell (⌊a/εa⌋, ⌊b/εb⌋) (BandCell), so the band probe
// |a − ca| ≤ εa ∧ |b − cb| ≤ εb visits the few cells around (ca, cb) — at
// most three per dimension in practice — instead of a key-ordered run.
//
// Cells live in an open-addressed table with Hash's sweep rule: an emptied
// cell keeps its slot until a new key finds the table three-quarters
// claimed, and the sweep then drops the dead cells. A cell owns no array to
// recycle, so the sweep works in place — the table keeps its capacity while
// the live cells fit at ≤ 50 % load and is replaced only to grow, or to
// shrink once they fill less than an eighth of it. Each cell is a chain
// through one pooled node array with a free list, so a window sliding over a
// stable or drifting key domain allocates nothing once the pool has reached
// the live count.
//
// Chains are kept in the order of less, the caller's expiry order (a window
// passes (TS, Seq)): an insert that sorts at or after its cell's tail
// appends, a late one walks its short chain, and an expiry in that order is
// a head pop. A probe enumerates cells in ascending (x, y) order, each chain
// in that order, so the order of its results depends only on what the index
// holds, never on the order of the inserts that built it.
//
// Coverage: bandRange's widened bounds enclose every key whose exact
// difference form passes, and BandCell is monotone, so every partner lies in
// a visited cell; the probe then decides each candidate of the visited cells
// by the exact difference form itself, on the keys stored in its node.
// Entries with a non-finite key can never band-match and are not stored.
//
// The zero value is not usable; construct with NewGrid.
type Grid[E comparable] struct {
	eps   [2]float64 // band widths; eps[1] = 0 and every b = 0 in one dimension
	twoD  bool
	less  func(x, y E) bool
	slots []gslot
	n     int // claimed slots, empty-chain (dead) ones included
	shift uint
	// The node pool, index 0 the nil sentinel: nodes[i] an entry and its
	// keys (24 bytes), next[i] its successor in its chain or on the free list.
	nodes  []gnode[E]
	next   []int32
	free   int32 // head of the free list; 0 when empty
	count  int
	sweeps int // sweeps run so far (the tests pin the in-place pass with it)
}

// gslot is one open-addressing slot: a cell key and its chain's first and
// last node. Node indexes are 1-based so the zero slot is unclaimed; a
// claimed cell whose chain emptied keeps tail = -1 until a sweep drops it.
type gslot struct {
	key        uint64
	head, tail int32
}

// gnode is one pooled entry: the value and its band keys, so the exact check
// reads no entry.
type gnode[E comparable] struct {
	e    E
	a, b float64
}

// NewGrid creates an empty band grid over one key (one width) or two keys
// (two widths), its chains ordered by less (strict: x sorts before y).
// Widths must be finite and non-negative.
func NewGrid[E comparable](less func(x, y E) bool, eps ...float64) *Grid[E] {
	if len(eps) < 1 || len(eps) > 2 {
		panic("index: a band grid has one or two dimensions")
	}
	g := &Grid[E]{twoD: len(eps) == 2, less: less}
	copy(g.eps[:], eps)
	g.Reset()
	return g
}

func (g *Grid[E]) init(capacity int) {
	g.slots = make([]gslot, capacity)
	g.n = 0
	g.shift = 64 - uint(bits.TrailingZeros(uint(capacity)))
}

func (g *Grid[E]) hash(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> g.shift
}

// Len returns the number of entries currently held.
func (g *Grid[E]) Len() int { return g.count }

// Reset drops all content, releasing the backing storage.
func (g *Grid[E]) Reset() {
	g.init(hashMinCap)
	g.nodes = make([]gnode[E], 1, hashMinCap)
	g.next = make([]int32, 1, hashMinCap)
	g.free = 0
	g.count = 0
}

// keys canonicalizes an entry's keys: b is 0 in one dimension. ok is false
// when a key is not finite.
func (g *Grid[E]) keys(a, b float64) (float64, float64, bool) {
	if !g.twoD {
		b = 0
	}
	return a, b, finite(a) && finite(b)
}

func (g *Grid[E]) cell(a, b float64) uint64 {
	return cellKey(BandCell(a, g.eps[0]), BandCell(b, g.eps[1]))
}

// Add inserts e under keys a and b (b is ignored by a one-dimensional grid),
// after every entry of its cell that does not sort after it. An entry with
// a non-finite key is not stored. A given entry must be added at most once.
func (g *Grid[E]) Add(a, b float64, e E) {
	a, b, ok := g.keys(a, b)
	if !ok {
		return
	}
	i := g.alloc()
	g.nodes[i] = gnode[E]{e: e, a: a, b: b}
	g.next[i] = 0
	g.count++
	s := g.claim(g.cell(a, b))
	switch t := s.tail; {
	case s.head == 0:
		s.head, s.tail = i, i
	case !g.less(e, g.nodes[t].e):
		g.next[t] = i
		s.tail = i
	default:
		// Late: walk to the first node that sorts after e.
		p, c := int32(0), s.head
		for !g.less(e, g.nodes[c].e) {
			p, c = c, g.next[c]
		}
		g.next[i] = c
		if p == 0 {
			s.head = i
		} else {
			g.next[p] = i
		}
	}
}

// Remove deletes e, stored under keys a and b. Removal in chain order is a
// head pop; any other walks the chain to e. It is a no-op for non-finite
// keys, mirroring Add; otherwise the entry must be present.
func (g *Grid[E]) Remove(a, b float64, e E) {
	a, b, ok := g.keys(a, b)
	if !ok {
		return
	}
	key := g.cell(a, b)
	mask := uint64(len(g.slots) - 1)
	i := g.hash(key)
	for g.slots[i].key != key || g.slots[i].tail == 0 {
		i = (i + 1) & mask
	}
	s := &g.slots[i]
	p, c := int32(0), s.head
	for g.nodes[c].e != e {
		p, c = c, g.next[c]
	}
	if p == 0 {
		s.head = g.next[c]
	} else {
		g.next[p] = g.next[c]
	}
	if s.tail == c {
		s.tail = p
	}
	if s.head == 0 {
		s.tail = -1
	}
	g.nodes[c] = gnode[E]{} // drops the entry for the GC
	g.next[c] = g.free
	g.free = c
	g.count--
}

// AppendBand appends to dst every entry whose keys pass the exact difference
// forms a − ca ∈ [−εa, εa] and (two dimensions) b − cb ∈ [−εb, εb], in
// ascending cell order and chain order within a cell. A non-finite center
// matches nothing.
func (g *Grid[E]) AppendBand(dst []E, ca, cb float64) []E {
	x0, x1, ok := bandSpan(ca, g.eps[0])
	if !ok {
		return dst
	}
	y0, y1 := int64(0), int64(0)
	if g.twoD {
		if y0, y1, ok = bandSpan(cb, g.eps[1]); !ok {
			return dst
		}
	} else {
		cb = 0
	}
	ea, eb := g.eps[0], g.eps[1]
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			for i := g.chain(cellKey(x, y)); i != 0; i = g.next[i] {
				n := &g.nodes[i]
				// Negated-form-safe: NaN fails every comparison.
				if da, db := n.a-ca, n.b-cb; da >= -ea && da <= ea && db >= -eb && db <= eb {
					dst = append(dst, n.e)
				}
			}
		}
	}
	return dst
}

// chain returns the first node of the cell's chain, or 0.
func (g *Grid[E]) chain(key uint64) int32 {
	mask := uint64(len(g.slots) - 1)
	for i := g.hash(key); ; i = (i + 1) & mask {
		s := &g.slots[i]
		if s.tail == 0 {
			return 0
		}
		if s.key == key {
			return s.head
		}
	}
}

// claim returns the slot for key, claiming one if the key is new. Only a
// claim checks the load, and one that finds the table three-quarters
// claimed sweeps first, then probes again.
func (g *Grid[E]) claim(key uint64) *gslot {
	mask := uint64(len(g.slots) - 1)
	for i := g.hash(key); ; i = (i + 1) & mask {
		s := &g.slots[i]
		if s.tail == 0 {
			if (g.n+1)*4 >= len(g.slots)*3 {
				g.sweep()
				return g.claim(key)
			}
			s.key, s.tail = key, -1
			g.n++
			return s
		}
		if s.key == key {
			return s
		}
	}
}

// alloc takes a node off the free list, or grows the pool by one.
func (g *Grid[E]) alloc() int32 {
	if i := g.free; i != 0 {
		g.free = g.next[i]
		return i
	}
	g.nodes = append(g.nodes, gnode[E]{})
	g.next = append(g.next, 0)
	return int32(len(g.nodes) - 1)
}

// sweep drops the dead cells accumulated since the last sweep. While the
// live cells fit the table at ≤ 50 % load, and fill at least an eighth of
// it, it drops them in place; otherwise it moves the live cells into a new
// table sized for them at ≤ 50 % load.
//
// The in-place pass starts at a slot that was empty before the sweep and
// goes once around the table, taking each live cell out and re-inserting
// it. No probe path crossed that slot, so none wraps past the start, and
// every cell lands at or before its old position on its own path: the cells
// already passed stay reachable, and the ones ahead are fixed when reached.
func (g *Grid[E]) sweep() {
	g.sweeps++
	live, start := 0, -1
	for i := range g.slots {
		switch s := &g.slots[i]; {
		case s.head != 0:
			live++
		case s.tail == 0:
			start = i
		default:
			*s = gslot{}
		}
	}
	g.n = live
	size := hashMinCap
	for size < 2*(live+1) {
		size *= 2
	}
	if size > len(g.slots) || 8*(live+1) < len(g.slots) && size < len(g.slots) {
		old := g.slots
		g.init(size)
		g.n = live
		for i := range old {
			if old[i].head != 0 {
				g.place(old[i])
			}
		}
		return
	}
	mask := len(g.slots) - 1
	for k := 1; k <= len(g.slots); k++ {
		i := (start + k) & mask
		if s := g.slots[i]; s.head != 0 {
			g.slots[i] = gslot{}
			g.place(s)
		}
	}
}

// place puts a live cell's slot at the first empty slot of its probe path.
func (g *Grid[E]) place(s gslot) {
	mask := uint64(len(g.slots) - 1)
	j := g.hash(s.key)
	for g.slots[j].tail != 0 {
		j = (j + 1) & mask
	}
	g.slots[j] = s
}
