package window

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/stream"
)

// refWindow is a trivial reference implementation with the pre-ring-buffer
// semantics: a sorted slice with per-bucket scan deletion. The optimized
// Window must behave identically operation by operation.
type refWindow struct {
	items []*stream.Tuple
	idx   map[float64][]*stream.Tuple
	attr  int
}

func newRef(attr int) *refWindow {
	return &refWindow{idx: map[float64][]*stream.Tuple{}, attr: attr}
}

func (r *refWindow) insert(t *stream.Tuple) {
	i := sort.Search(len(r.items), func(i int) bool {
		if r.items[i].TS != t.TS {
			return r.items[i].TS > t.TS
		}
		return r.items[i].Seq > t.Seq
	})
	r.items = append(r.items, nil)
	copy(r.items[i+1:], r.items[i:])
	r.items[i] = t
	k := t.Attr(r.attr)
	r.idx[k] = append(r.idx[k], t)
}

func (r *refWindow) expire(bound stream.Time) int {
	n := sort.Search(len(r.items), func(i int) bool { return r.items[i].TS >= bound })
	for _, t := range r.items[:n] {
		k := t.Attr(r.attr)
		lst := r.idx[k]
		for j, cand := range lst {
			if cand == t {
				lst[j] = lst[len(lst)-1]
				lst = lst[:len(lst)-1]
				break
			}
		}
		if len(lst) == 0 {
			delete(r.idx, k)
		} else {
			r.idx[k] = lst
		}
	}
	r.items = append(r.items[:0], r.items[n:]...)
	return n
}

// TestDifferentialAgainstReference replays random disordered batches through
// the ring-buffer Window and the reference implementation, asserting
// identical All()/Match()/Expire() behavior after every operation.
func TestDifferentialAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := New(50, 0)
		r := newRef(0)
		var seq uint64
		var bound stream.Time
		for op := 0; op < 500; op++ {
			if rng.Intn(4) == 0 {
				// Expire with a mostly-advancing bound, as Alg. 2 produces.
				bound += stream.Time(rng.Intn(20))
				if w.Expire(bound) != r.expire(bound) {
					t.Logf("seed %d op %d: expire count mismatch", seed, op)
					return false
				}
			} else {
				// Mostly-ordered input with out-of-order residue, mirroring
				// the Synchronizer's output.
				ts := bound + stream.Time(rng.Intn(60))
				tp := &stream.Tuple{TS: ts, Seq: seq, Attrs: []float64{float64(rng.Intn(7))}}
				seq++
				w.Insert(tp)
				r.insert(tp)
			}
			if !sameTuples(w.All(), r.items) {
				t.Logf("seed %d op %d: All() mismatch", seed, op)
				return false
			}
			for key := 0; key < 7; key++ {
				if !sameSet(match(w, 0, float64(key)), r.idx[float64(key)]) {
					t.Logf("seed %d op %d: Match(%d) mismatch", seed, op, key)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialLateInserts stresses the left-shift path: many inserts far
// behind the watermark after the head has advanced.
func TestDifferentialLateInserts(t *testing.T) {
	w := New(1000, 0)
	r := newRef(0)
	var seq uint64
	push := func(ts stream.Time) {
		tp := &stream.Tuple{TS: ts, Seq: seq, Attrs: []float64{float64(ts % 5)}}
		seq++
		w.Insert(tp)
		r.insert(tp)
	}
	for i := 0; i < 300; i++ {
		push(stream.Time(i * 10))
	}
	w.Expire(1500)
	r.expire(1500)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		// Late tuples land throughout the live region, including right at
		// the head.
		push(1500 + stream.Time(rng.Intn(1500)))
		if !sameTuples(w.All(), r.items) {
			t.Fatalf("late insert %d diverged", i)
		}
	}
	if w.Expire(4000) != r.expire(4000) {
		t.Fatal("expire count diverged after late inserts")
	}
	if !sameTuples(w.All(), r.items) {
		t.Fatal("content diverged after final expire")
	}
}

// TestCompactionPreservesContent slides a window long enough to trigger many
// compactions and checks content against the reference throughout.
func TestCompactionPreservesContent(t *testing.T) {
	w := New(100, 0)
	r := newRef(0)
	var seq uint64
	for i := 0; i < 20000; i++ {
		ts := stream.Time(i)
		tp := &stream.Tuple{TS: ts, Seq: seq, Attrs: []float64{float64(i % 13)}}
		seq++
		w.Insert(tp)
		r.insert(tp)
		if i%3 == 0 {
			if w.Expire(ts-100) != r.expire(ts-100) {
				t.Fatalf("expire mismatch at %d", i)
			}
		}
	}
	if !sameTuples(w.All(), r.items) {
		t.Fatal("content diverged")
	}
	// Memory must track live tuples: the backing array cannot exceed a small
	// multiple of the live region after this much sliding.
	if cap(w.buf) > 8*w.Len()+compactMinDead {
		t.Fatalf("backing array cap %d for %d live tuples — compaction not working", cap(w.buf), w.Len())
	}
}

// TestSteadyStateInsertExpireDoesNotAllocate pins the allocation-free hot
// path: sliding a warm window over in-order input with a recurring key
// domain must not allocate at all.
func TestSteadyStateInsertExpireDoesNotAllocate(t *testing.T) {
	w := New(1000, 0)
	var seq uint64
	var ts stream.Time
	mk := func() *stream.Tuple {
		tp := &stream.Tuple{TS: ts, Seq: seq, Attrs: []float64{float64(seq % 16)}}
		seq++
		ts += 10
		return tp
	}
	tuples := make([]*stream.Tuple, 0, 40000)
	for i := 0; i < 40000; i++ {
		tuples = append(tuples, mk())
	}
	i := 0
	// Warm up: reach the steady-state high-water mark.
	for ; i < 2000; i++ {
		w.Expire(tuples[i].TS - 1000)
		w.Insert(tuples[i])
	}
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 100; j++ {
			w.Expire(tuples[i].TS - 1000)
			w.Insert(tuples[i])
			i++
		}
	})
	if allocs > 1 { // amortized growth may rarely trip; ~0 is the target
		t.Fatalf("steady-state insert/expire allocated %v times per run", allocs)
	}
}

// TestDifferentialRangeIndex replays random disordered batches through a
// Window with a one-dimensional band grid and checks its band probes against
// a linear scan of the reference content — same tuples, in ascending cell
// order and (TS, Seq) order within a cell — including NaN attribute values
// (never band-matched) and duplicate timestamps at the expiry edge.
func TestDifferentialRangeIndex(t *testing.T) {
	const eps = 0.75
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := NewIndexed(50, nil, []GridKey{{A: 0, B: -1, EpsA: eps}})
		r := newRef(0)
		var seq uint64
		var bound stream.Time
		for op := 0; op < 500; op++ {
			if rng.Intn(4) == 0 {
				bound += stream.Time(rng.Intn(20))
				if w.Expire(bound) != r.expire(bound) {
					t.Logf("seed %d op %d: expire count mismatch", seed, op)
					return false
				}
			} else {
				// Duplicate timestamps right at the expiry bound are common:
				// rng.Intn(60) == 0 pins the tuple to the boundary.
				ts := bound + stream.Time(rng.Intn(60))
				attr := float64(rng.Intn(9)) / 2
				if rng.Intn(20) == 0 {
					attr = math.NaN()
				}
				tp := &stream.Tuple{TS: ts, Seq: seq, Attrs: []float64{attr}}
				seq++
				w.Insert(tp)
				r.insert(tp)
			}
			for probe := 0; probe < 4; probe++ {
				c := float64(rng.Intn(12))/2 - 0.75
				// r.items is in (TS, Seq) order; a stable sort by cell is
				// the grid's documented order.
				var want []*stream.Tuple
				for _, tp := range r.items {
					if d := tp.Attr(0) - c; d >= -eps && d <= eps {
						want = append(want, tp)
					}
				}
				slices.SortStableFunc(want, func(x, y *stream.Tuple) int {
					return cmp.Compare(index.BandCell(x.Attr(0), eps), index.BandCell(y.Attr(0), eps))
				})
				if got := matchBand(w, 0, eps, c); !sameTuples(got, want) {
					t.Logf("seed %d op %d: band around %v = %d tuples, want %d (or order differs)",
						seed, op, c, len(got), len(want))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRangeIndexNaNProbe: a NaN or infinite probe center must match nothing,
// and NaN- or infinity-valued tuples must never appear in any band.
func TestRangeIndexNaNProbe(t *testing.T) {
	w := NewIndexed(100, nil, []GridKey{{A: 0, B: -1, EpsA: 10}})
	w.Insert(&stream.Tuple{TS: 1, Seq: 0, Attrs: []float64{math.NaN()}})
	w.Insert(&stream.Tuple{TS: 1, Seq: 1, Attrs: []float64{math.Inf(1)}})
	w.Insert(&stream.Tuple{TS: 2, Seq: 2, Attrs: []float64{3}})
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := matchBand(w, 0, 10, c); len(got) != 0 {
			t.Fatalf("center %v matched %d tuples", c, len(got))
		}
	}
	if got := matchBand(w, 0, 10, 0); len(got) != 1 {
		t.Fatalf("band around 0 matched %d tuples, want 1 (NaN and +Inf excluded)", len(got))
	}
	// Expiring the non-finite tuples must not disturb the index.
	w.Expire(2)
	if got := len(matchBand(w, 0, 10, 5)); got != 1 {
		t.Fatalf("after expiry the band holds %d tuples, want 1", got)
	}
}

func sameTuples(a, b []*stream.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameSet compares ignoring order: the old implementation scrambles bucket
// order differently than swap-delete does, and probe semantics are
// order-insensitive within a bucket.
func sameSet(a, b []*stream.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[*stream.Tuple]int{}
	for _, t := range a {
		seen[t]++
	}
	for _, t := range b {
		seen[t]--
		if seen[t] < 0 {
			return false
		}
	}
	return true
}
