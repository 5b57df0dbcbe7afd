package window

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/stream"
)

func tup(ts stream.Time, key float64, seq uint64) *stream.Tuple {
	return &stream.Tuple{TS: ts, Seq: seq, Attrs: []float64{key}}
}

// match probes w's hash index on attr as an equi lookup does; NaN never
// matches. The attribute must be indexed.
func match(w *Window, attr int, key float64) []*stream.Tuple {
	b, ok := index.KeyBits(key)
	if !ok {
		return nil
	}
	return w.HashIndex(attr).Get(b)
}

// matchBand probes w's one-dimensional band grid on attr (width eps) for
// the keys v with v − c ∈ [−eps, eps].
func matchBand(w *Window, attr int, eps, c float64) []*stream.Tuple {
	return w.Grid(GridKey{A: attr, B: -1, EpsA: eps}).AppendBand(nil, c, 0)
}

func TestInsertKeepsOrder(t *testing.T) {
	w := New(10)
	w.Insert(tup(5, 0, 0))
	w.Insert(tup(3, 0, 1))
	w.Insert(tup(7, 0, 2))
	w.Insert(tup(5, 0, 3)) // equal ts, later Seq → after the first ts-5
	all := w.All()
	wantTS := []stream.Time{3, 5, 5, 7}
	for i, want := range wantTS {
		if all[i].TS != want {
			t.Fatalf("All()[%d].TS = %d, want %d", i, all[i].TS, want)
		}
	}
	if all[1].Seq != 0 || all[2].Seq != 3 {
		t.Fatal("equal timestamps must keep arrival order")
	}
}

func TestExpire(t *testing.T) {
	w := New(10)
	for i := 0; i < 5; i++ {
		w.Insert(tup(stream.Time(i), 0, uint64(i)))
	}
	if n := w.Expire(3); n != 3 {
		t.Fatalf("Expire removed %d, want 3", n)
	}
	if w.Len() != 2 || w.All()[0].TS != 3 {
		t.Fatalf("window content wrong after expire: %v", w.All())
	}
	// Boundary: tuples with ts == bound stay (Alg. 2 removes ts < bound).
	if n := w.Expire(3); n != 0 {
		t.Fatalf("re-expire removed %d, want 0", n)
	}
}

func TestIndexMaintainedThroughExpire(t *testing.T) {
	w := New(10, 0)
	w.Insert(tup(1, 7, 0))
	w.Insert(tup(2, 7, 1))
	w.Insert(tup(3, 8, 2))
	if got := len(match(w, 0, 7)); got != 2 {
		t.Fatalf("Match(7) = %d, want 2", got)
	}
	w.Expire(2) // drops ts 1
	if got := len(match(w, 0, 7)); got != 1 {
		t.Fatalf("Match(7) after expire = %d, want 1", got)
	}
	if got := len(match(w, 0, 8)); got != 1 {
		t.Fatalf("Match(8) = %d, want 1", got)
	}
	w.Expire(100)
	if len(match(w, 0, 7)) != 0 || len(match(w, 0, 8)) != 0 {
		t.Fatal("index must be empty after full expiration")
	}
}

func TestMatchUnindexedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unindexed probe")
		}
	}()
	w := New(10)
	match(w, 0, 1)
}

func TestIndexed(t *testing.T) {
	one := GridKey{A: 1, B: -1, EpsA: 5}
	two := GridKey{A: 1, B: 2, EpsA: 5, EpsB: 5}
	w := NewIndexed(10, []int{2}, []GridKey{one, two})
	if w.HashIndex(2) == nil || w.HashIndex(0) != nil || w.HashIndex(1) != nil {
		t.Fatal("HashIndex hands out the wrong attributes")
	}
	if w.Grid(one) == nil || w.Grid(two) == nil || w.Grid(one) == w.Grid(two) ||
		w.Grid(GridKey{A: 1, B: -1, EpsA: 4}) != nil || w.Grid(GridKey{A: 2, B: -1, EpsA: 5}) != nil {
		t.Fatal("Grid hands out the wrong keys")
	}
}

func TestReset(t *testing.T) {
	w := New(10, 0)
	w.Insert(tup(1, 5, 0))
	w.Reset()
	if w.Len() != 0 || len(match(w, 0, 5)) != 0 {
		t.Fatal("reset must clear content and indexes")
	}
}

// Property: after arbitrary interleavings of inserts and expires, the index
// agrees with a scan of the live content.
func TestIndexConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := New(50, 0)
		var seq uint64
		for i := 0; i < 300; i++ {
			if rng.Intn(4) == 0 {
				w.Expire(stream.Time(rng.Intn(200)))
				continue
			}
			w.Insert(tup(stream.Time(rng.Intn(200)), float64(rng.Intn(5)), seq))
			seq++
		}
		for key := 0; key < 5; key++ {
			scan := 0
			for _, e := range w.All() {
				if e.Attr(0) == float64(key) {
					scan++
				}
			}
			if scan != len(match(w, 0, float64(key))) {
				return false
			}
		}
		// Content must be ts-ordered.
		all := w.All()
		for i := 1; i < len(all); i++ {
			if all[i].TS < all[i-1].TS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
