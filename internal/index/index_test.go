package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

type entry struct{ id int }

// TestHashDifferential replays random add/remove/get traffic through Hash
// and a reference map, asserting identical bucket contents (as sets)
// throughout.
func TestHashDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHash[*entry]()
		ref := map[uint64][]*entry{}
		live := []*entry{}
		keyOf := map[*entry]uint64{}
		for op := 0; op < 800; op++ {
			switch {
			case len(live) > 0 && rng.Intn(3) == 0: // remove
				i := rng.Intn(len(live))
				e := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				k := keyOf[e]
				h.Remove(k, e)
				lst := ref[k]
				for j, cand := range lst {
					if cand == e {
						lst[j] = lst[len(lst)-1]
						ref[k] = lst[:len(lst)-1]
						break
					}
				}
			default: // add
				e := &entry{id: op}
				k := uint64(rng.Intn(12))
				h.Add(k, e)
				ref[k] = append(ref[k], e)
				live = append(live, e)
				keyOf[e] = k
			}
			if h.Len() != len(live) {
				t.Logf("seed %d op %d: Len %d want %d", seed, op, h.Len(), len(live))
				return false
			}
			for k := uint64(0); k < 12; k++ {
				if !sameSet(h.Get(k), ref[k]) {
					t.Logf("seed %d op %d: bucket %d mismatch", seed, op, k)
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

func TestHashGrowDropsDeadBuckets(t *testing.T) {
	h := NewHash[*entry]()
	// Slide a one-entry working set across a large key domain: dead buckets
	// accumulate and must be dropped at growth time instead of forcing
	// unbounded table growth.
	var prev *entry
	for k := uint64(0); k < 100000; k++ {
		e := &entry{id: int(k)}
		h.Add(k, e)
		if prev != nil {
			h.Remove(k-1, prev)
		}
		prev = e
	}
	if n := len(h.slots); n > 1024 {
		t.Fatalf("table capacity %d after sliding a 1-entry working set — dead buckets not recycled", n)
	}
}

func TestKeyBits(t *testing.T) {
	if k0, ok := KeyBits(0.0); !ok || k0 != 0 {
		t.Fatal("+0 must canonicalize to key 0")
	}
	if kn, ok := KeyBits(math.Copysign(0, -1)); !ok || kn != 0 {
		t.Fatal("−0 must collapse to the +0 key")
	}
	if _, ok := KeyBits(math.NaN()); ok {
		t.Fatal("NaN must report !ok")
	}
	a, _ := KeyBits(1.5)
	b, _ := KeyBits(1.5)
	c, _ := KeyBits(2.5)
	if a != b || a == c {
		t.Fatal("distinct values must have distinct keys")
	}
}

// TestSortedDifferential replays random add/remove traffic through Sorted
// and a reference sorted-by-(key, insertion) slice, asserting identical
// Range behavior for random probes.
func TestSortedDifferential(t *testing.T) {
	type keyed struct {
		key float64
		e   *entry
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sorted[*entry]
		var ref []keyed
		for op := 0; op < 600; op++ {
			switch {
			case len(ref) > 0 && rng.Intn(3) == 0: // remove
				i := rng.Intn(len(ref))
				s.Remove(ref[i].key, ref[i].e)
				ref = append(ref[:i], ref[i+1:]...)
			default:
				k := float64(rng.Intn(20)) / 2
				e := &entry{id: op}
				s.Add(k, e)
				// Insert after equal keys, as Sorted.Add specifies.
				i := sort.Search(len(ref), func(i int) bool { return ref[i].key > k })
				ref = append(ref, keyed{})
				copy(ref[i+1:], ref[i:])
				ref[i] = keyed{key: k, e: e}
			}
			if s.Len() != len(ref) {
				t.Logf("seed %d op %d: Len %d want %d", seed, op, s.Len(), len(ref))
				return false
			}
			for probe := 0; probe < 8; probe++ {
				lo := float64(rng.Intn(22))/2 - 1
				hi := lo + float64(rng.Intn(8))/2
				var want []*entry
				for _, kv := range ref {
					if kv.key >= lo && kv.key <= hi {
						want = append(want, kv.e)
					}
				}
				got := s.Range(lo, hi)
				if len(got) != len(want) {
					t.Logf("seed %d op %d: range [%v,%v] size mismatch", seed, op, lo, hi)
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						t.Logf("seed %d op %d: range [%v,%v] order mismatch", seed, op, lo, hi)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSortedNaN(t *testing.T) {
	var s Sorted[*entry]
	e := &entry{}
	s.Add(math.NaN(), e)
	if s.Len() != 0 {
		t.Fatal("NaN key must not be stored")
	}
	s.Remove(math.NaN(), e) // must not panic
	s.Add(1, e)
	if got := s.Range(math.NaN(), 2); len(got) != 0 {
		t.Fatal("NaN lo bound must yield an empty range")
	}
	if got := s.Range(0, math.NaN()); len(got) != 0 {
		t.Fatal("NaN hi bound must yield an empty range")
	}
	if got := s.Range(0, 2); len(got) != 1 {
		t.Fatal("finite range must still probe")
	}
}

func TestSortedInvertedRange(t *testing.T) {
	var s Sorted[*entry]
	s.Add(1, &entry{})
	if len(s.Range(2, 0)) != 0 {
		t.Fatal("hi < lo must be empty")
	}
}

func sameSet(a, b []*entry) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[*entry]int{}
	for _, e := range a {
		seen[e]++
	}
	for _, e := range b {
		seen[e]--
		if seen[e] < 0 {
			return false
		}
	}
	return true
}
