package pq

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// pushInt orders an int by itself, no tie-breaker.
func pushInt(h *Heap[int], v int) { h.Push(int64(v), 0, v) }

func TestPushPopSorted(t *testing.T) {
	var h Heap[int]
	in := []int{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for _, v := range in {
		pushInt(&h, v)
	}
	if h.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(in))
	}
	if p := h.Peek(); p.Key != 0 || p.Val != 0 {
		t.Fatalf("Peek = %+v, want 0", p)
	}
	for want := 0; want < len(in); want++ {
		if got := h.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty after draining")
	}
}

func TestDuplicatesAndInterleaving(t *testing.T) {
	var h Heap[int]
	pushInt(&h, 3)
	pushInt(&h, 3)
	pushInt(&h, 1)
	if h.Pop() != 1 || h.Pop() != 3 {
		t.Fatal("wrong order with duplicates")
	}
	pushInt(&h, 0)
	if h.Pop() != 0 || h.Pop() != 3 {
		t.Fatal("wrong order after interleaved push")
	}
}

// The tie-breaker orders equal keys; the value never takes part.
func TestTieBreaksEqualKeys(t *testing.T) {
	var h Heap[string]
	h.Push(7, 2, "c")
	h.Push(7, 0, "a")
	h.Push(3, 9, "first")
	h.Push(7, 1, "b")
	for _, want := range []string{"first", "a", "b", "c"} {
		if got := h.Pop(); got != want {
			t.Fatalf("Pop = %q, want %q", got, want)
		}
	}
}

func TestReset(t *testing.T) {
	var h Heap[int]
	for i := 0; i < 10; i++ {
		pushInt(&h, i)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset must empty the heap")
	}
	pushInt(&h, 42)
	if h.Pop() != 42 {
		t.Fatal("heap unusable after Reset")
	}
}

// Property: popping everything yields the sorted input, for arbitrary inputs.
func TestHeapSortProperty(t *testing.T) {
	f := func(raw []int) bool {
		var h Heap[int]
		for _, v := range raw {
			pushInt(&h, v)
		}
		want := append([]int(nil), raw...)
		sort.Ints(want)
		for _, w := range want {
			if h.Pop() != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: under random interleavings of push, pop and RemoveAt — drawn
// from a domain small enough that (key, tie) pairs repeat — every pop
// surfaces container/heap's minimum (key, tie), and both sides hold the same
// slots throughout. Slots equal on (key, tie) may surface in either order,
// so the oracle gives up the slot with the popped value, not its own root.
func TestMatchesContainerHeap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Heap[int]
		var ref refHeap
		// refRemove takes the slot holding v out of the oracle.
		refRemove := func(v int) (Item[int], bool) {
			for j := range ref {
				if ref[j].Val == v {
					return heap.Remove(&ref, j).(Item[int]), true
				}
			}
			return Item[int]{}, false
		}
		popBoth := func() bool {
			min := ref[0]
			p := h.Peek()
			got, ok := refRemove(h.Pop())
			return ok && got == p && p.Key == min.Key && p.Tie == min.Tie
		}
		for i := 0; i < 600; i++ {
			switch op := rng.Intn(6); {
			case op == 0 && h.Len() > 0:
				if !popBoth() {
					return false
				}
			case op == 1 && h.Len() > 0:
				at := rng.Intn(h.Len())
				want := h.items[at]
				if got, ok := refRemove(h.RemoveAt(at)); !ok || got != want {
					return false
				}
			default:
				k, tie := int64(rng.Intn(12)), uint64(rng.Intn(3))
				h.Push(k, tie, i)
				heap.Push(&ref, Item[int]{Key: k, Tie: tie, Val: i})
			}
			if h.Len() != ref.Len() {
				return false
			}
		}
		for h.Len() > 0 {
			if !popBoth() {
				return false
			}
		}
		return ref.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// RemoveAt at every position of heaps of every small size leaves a heap
// that pops the remaining slots in (key, tie) order.
func TestRemoveAtEveryPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 40; n++ {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(n/2 + 1)) // duplicates guaranteed
		}
		for at := 0; at < n; at++ {
			var h Heap[int]
			for i, k := range keys {
				h.Push(k, uint64(i%2), i)
			}
			gone := h.RemoveAt(at)
			var want []Item[int]
			for i, k := range keys {
				if i != gone {
					want = append(want, Item[int]{Key: k, Tie: uint64(i % 2)})
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a].Less(&want[b]) })
			if h.Len() != len(want) {
				t.Fatalf("n=%d at=%d: Len = %d, want %d", n, at, h.Len(), len(want))
			}
			for i, w := range want {
				p := h.Peek()
				if v := h.Pop(); v == gone || p.Key != w.Key || p.Tie != w.Tie {
					t.Fatalf("n=%d at=%d: pop %d = (%d,%d) val %d, want (%d,%d)", n, at, i, p.Key, p.Tie, v, w.Key, w.Tie)
				}
			}
		}
	}
}

// The backing array is laid out exactly as a swap-based 4-ary heap ordered
// by a less function lays it out: components that expose heap order (the
// unindexed tree-stage candidate scan) see the same sequence, and slots
// equal on (key, tie) pop in the same order.
func TestLayoutMatchesSwapHeap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Heap[int]
		ref := swapHeap{}
		same := func() bool {
			if h.Len() != len(ref.items) {
				return false
			}
			for i, it := range h.items {
				if it != ref.items[i] {
					return false
				}
			}
			return true
		}
		for i := 0; i < 800; i++ {
			switch op := rng.Intn(5); {
			case op == 0 && h.Len() > 0:
				if h.Pop() != ref.pop().Val {
					return false
				}
			case op == 1 && h.Len() > 0:
				at := rng.Intn(h.Len())
				if h.RemoveAt(at) != ref.removeAt(at).Val {
					return false
				}
			default:
				k, tie := int64(rng.Intn(20)), uint64(rng.Intn(2))
				h.Push(k, tie, i)
				ref.push(Item[int]{Key: k, Tie: tie, Val: i})
			}
			if !same() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSteadyStatePushPopDoesNotAllocate(t *testing.T) {
	var h Heap[int]
	for i := 0; i < 1024; i++ {
		pushInt(&h, i)
	}
	for h.Len() > 0 {
		h.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			pushInt(&h, 64-i)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %v times per run", allocs)
	}
}

// refHeap is the container/heap oracle.
type refHeap []Item[int]

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].Less(&h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(Item[int])) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// swapHeap is the textbook swap-based 4-ary heap the hole-moving sifts
// replaced, kept as the layout reference.
type swapHeap struct{ items []Item[int] }

func (h *swapHeap) push(x Item[int]) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

func (h *swapHeap) pop() Item[int] {
	n := len(h.items) - 1
	top := h.items[0]
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	if n > 1 {
		h.down(0)
	}
	return top
}

func (h *swapHeap) removeAt(i int) Item[int] {
	n := len(h.items) - 1
	out := h.items[i]
	h.items[i] = h.items[n]
	h.items = h.items[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
	return out
}

func (h *swapHeap) up(i int) {
	for i > 0 {
		p := (i - 1) >> 2
		if !h.items[i].Less(&h.items[p]) {
			return
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *swapHeap) down(i int) {
	n := len(h.items)
	for {
		c := i<<2 + 1
		if c >= n {
			return
		}
		min := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h.items[j].Less(&h.items[min]) {
				min = j
			}
		}
		if !h.items[min].Less(&h.items[i]) {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int, 4096)
	for i := range vals {
		vals[i] = rng.Int()
	}
	b.Run("pq4ary", func(b *testing.B) {
		var h Heap[int]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pushInt(&h, vals[i%len(vals)])
			if h.Len() > 256 {
				h.Pop()
			}
		}
	})
	b.Run("container-heap", func(b *testing.B) {
		var h refHeap
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := vals[i%len(vals)]
			heap.Push(&h, Item[int]{Key: int64(v), Val: v})
			if h.Len() > 256 {
				heap.Pop(&h)
			}
		}
	})
}
