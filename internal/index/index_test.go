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
// throughout — over a key domain the table holds whole, and over one wide
// enough that sweeps run, resize and hand recycled arrays to new keys.
func TestHashDifferential(t *testing.T) {
	for _, domain := range []int{12, 300} {
		hashDifferential(t, domain)
	}
}

func hashDifferential(t *testing.T, domain int) {
	sweeps := 0
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
				k := uint64(rng.Intn(domain))
				h.Add(k, e)
				ref[k] = append(ref[k], e)
				live = append(live, e)
				keyOf[e] = k
			}
			if h.Len() != len(live) {
				t.Logf("seed %d op %d: Len %d want %d", seed, op, h.Len(), len(live))
				return false
			}
			for k := uint64(0); k < uint64(domain); k++ {
				if !sameSet(h.Get(k), ref[k]) {
					t.Logf("seed %d op %d: bucket %d mismatch", seed, op, k)
					return false
				}
			}
		}
		sweeps += h.sweeps
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
	if sweeps == 0 {
		t.Fatalf("domain %d: no sweep ran", domain)
	}
}

// TestHashAddToOwnedKeyNeverSweeps: only a claim checks the load. With the
// table one claim short of its sweep threshold and dead slots waiting, adds
// to keys that own a slot — live or emptied — leave the table alone; the
// next new key sweeps once.
func TestHashAddToOwnedKeyNeverSweeps(t *testing.T) {
	h := NewHash[*entry]()
	es := make([]*entry, hashMinCap)
	// 11 claims fill a 16-slot table to the last one below 3/4.
	for k := range es[:11] {
		es[k] = &entry{id: k}
		h.Add(uint64(k), es[k])
	}
	for k := range es[:6] {
		h.Remove(uint64(k), es[k])
	}
	if h.sweeps != 0 || (h.n+1)*4 < len(h.slots)*3 {
		t.Fatalf("setup: %d sweeps, %d of %d slots claimed — not at the threshold", h.sweeps, h.n, len(h.slots))
	}
	table := &h.slots[0]
	for round := 0; round < 50; round++ {
		for k := range es[:11] {
			e := &entry{id: 100 + k}
			h.Add(uint64(k), e)
			h.Remove(uint64(k), e)
		}
	}
	if h.sweeps != 0 || &h.slots[0] != table {
		t.Fatalf("%d sweeps after adds to keys that own their slots", h.sweeps)
	}
	h.Add(99, &entry{id: 99})
	if h.sweeps != 1 {
		t.Fatalf("%d sweeps after the claim that crossed the threshold, want 1", h.sweeps)
	}
	if h.Len() != 6 || len(h.Get(99)) != 1 || len(h.Get(7)) != 1 || len(h.Get(2)) != 0 {
		t.Fatalf("content changed across the sweep: Len %d", h.Len())
	}
}

// TestHashSparseLiveKeysZeroAllocs: a window whose live keys are a small
// moving fraction of its key domain — tree3-perstage's stage-1 partials,
// ~55 live of 500 — fills its table with dead slots and sweeps to the same
// capacity over and over. Once warm, that cycle allocates nothing: the
// table is refilled in place and every claim takes a recycled array.
func TestHashSparseLiveKeysZeroAllocs(t *testing.T) {
	const live, domain = 55, 500
	rng := rand.New(rand.NewSource(1))
	h := NewHash[*entry]()
	ring := make([]entry, live)
	keys := make([]uint64, live)
	n := 0
	slide := func() {
		i := n % live
		if n >= live {
			h.Remove(keys[i], &ring[i])
		}
		keys[i] = uint64(rng.Intn(domain))
		h.Add(keys[i], &ring[i])
		n++
	}
	for n < 40000 {
		slide()
	}
	before, table := h.sweeps, len(h.slots)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 4000; i++ {
			slide()
		}
	})
	if allocs != 0 {
		t.Fatalf("sliding %d live keys over a %d-key domain allocated %v times per 4000 add/remove pairs", live, domain, allocs)
	}
	if h.sweeps-before < 100 || len(h.slots) != table {
		t.Fatalf("%d sweeps, table %d → %d slots: the run no longer measures the same-capacity sweep", h.sweeps-before, table, len(h.slots))
	}
}

// TestHashSpareIsBounded: a burst of keys that never come back must not be
// retained as spare arrays — a sweep keeps at most one per slot of the
// table it leaves.
func TestHashSpareIsBounded(t *testing.T) {
	h := NewHash[*entry]()
	burst := make([]*entry, 20000)
	for k := range burst {
		burst[k] = &entry{id: k}
		h.Add(uint64(k), burst[k])
	}
	for k := range burst {
		h.Remove(uint64(k), burst[k])
	}
	for k := len(burst); k < 4*len(burst); k++ {
		e := &entry{id: k}
		h.Add(uint64(k), e)
		h.Remove(uint64(k), e)
	}
	if len(h.slots) > 1024 || len(h.spare) > len(h.slots) {
		t.Fatalf("after the burst drained: %d slots, %d spare arrays", len(h.slots), len(h.spare))
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
