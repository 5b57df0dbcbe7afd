package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSlice drives a Queue and a plain slice with one random
// sequence of pushes, writes through Tail that Extend keeps or drops, pops
// and resets, across many block boundaries, and holds every element, the length
// and the retained blocks to the slice's.
func TestQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[[2]int64]
	var want [][2]int64
	peak := 0
	for step := 0; step < 200000; step++ {
		switch r := rng.Intn(1000); {
		case r < 400+200*((step/20000)%2): // phases of growth and shrinkage
			v := [2]int64{int64(step), rng.Int63()}
			q.Push(v)
			want = append(want, v)
		case r < 550: // a write through Tail that Extend keeps or drops
			v, k := [2]int64{int64(step), rng.Int63()}, rng.Intn(2)
			*q.Tail() = v
			q.Extend(k)
			if k == 1 {
				want = append(want, v)
			}
		case r < 950:
			if len(want) > 0 {
				if got := q.Pop(); got != want[0] {
					t.Fatalf("step %d: Pop = %v, want %v", step, got, want[0])
				}
				want = want[1:]
			}
		case r < 999:
			if len(want) > 0 {
				if got, v := q.At(len(want)-1), want[len(want)-1]; got != v {
					t.Fatalf("step %d: newest %v, want %v", step, got, v)
				}
			}
		default:
			q.Reset()
			want = want[:0]
		}
		if q.Len() != len(want) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(want))
		}
		peak = max(peak, len(want))
		if b := q.Blocks(); b > peak/BlockLen+2 {
			t.Fatalf("step %d: %d blocks retained for a high-water mark of %d", step, b, peak)
		}
		if step%97 == 0 {
			for i, v := range want {
				if q.At(i) != v {
					t.Fatalf("step %d: At(%d) = %v, want %v", step, i, q.At(i), v)
				}
			}
		}
	}
	if peak < 4*BlockLen {
		t.Fatalf("high-water mark %d: the queue never spanned several blocks", peak)
	}
}

// TestReserveKeepsContents: growing the block table keeps the live elements
// and their order.
func TestReserveKeepsContents(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 3*BlockLen; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Reserve(100 * BlockLen)
	if cap(q.blocks) < 102 {
		t.Fatalf("block table capacity %d after Reserve(%d)", cap(q.blocks), 100*BlockLen)
	}
	for i := 0; i < q.Len(); i++ {
		if q.At(i) != i+1 {
			t.Fatalf("At(%d) = %d after Reserve", i, q.At(i))
		}
	}
}
