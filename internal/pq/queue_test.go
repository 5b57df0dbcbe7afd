package pq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The Queue is held against one Heap over everything it holds, pop for pop.
//
// Mutation check (must fail TestQueueMatchesHeap): appending to the run
// when the key equals the tail's but the tie is smaller — Push comparing
// keys alone — leaves the run out of order, and the "ties" row pops a
// different value than the heap.

// rec is a queued value: its (key, tie) pair and an identity.
type rec struct {
	key int64
	tie uint64
	id  int
}

func recKey(r *rec) (int64, uint64) { return r.key, r.tie }

// queueFeed draws the next pushed pair: at or after the newest in-order
// one, or with probability late strictly before the previous push — which
// keeps a fully late feed descending, the late heap's worst case. With ties
// set, keys advance rarely and every tie is random, so equal keys are common
// and their ties arrive in any order; otherwise ties grow with every push.
type queueFeed struct {
	rng       *rand.Rand
	late      float64
	ties      bool
	key, prev int64
	id        uint64
}

func (f *queueFeed) next() *rec {
	f.id++
	r := &rec{key: f.key, tie: f.id, id: int(f.id)}
	if f.ties {
		r.tie = f.rng.Uint64() >> 1
		if f.rng.Intn(8) == 0 {
			f.key++
		}
		r.key = f.key
		return r
	}
	f.key += int64(f.rng.Intn(3))
	r.key = f.key
	if f.rng.Float64() < f.late {
		r.key = f.prev - 1 - int64(f.rng.Intn(3))
	}
	f.prev = r.key
	return r
}

// TestQueueMatchesHeap: on random push/pop/remove traffic — equal keys
// broken by tie, all in order, 25 % and 100 % late — the Queue holds, fronts
// and pops exactly what one Heap does, through Removes of run and late-heap
// values mid-stream and a Reset that reuses the queue; an in-order feed
// never touches the late heap, and a fully late one sends everything there
// but each run's first value.
func TestQueueMatchesHeap(t *testing.T) {
	for _, c := range []struct {
		name string
		late float64
		ties bool
	}{{"ties", 0, true}, {"inorder", 0, false}, {"late25", 0.25, false}, {"late100", 1, false}} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				f := &queueFeed{rng: rng, late: c.late, ties: c.ties}
				q := NewQueue(recKey)
				var ref Heap[*rec]
				pushes, lates, removes := 0, 0, 0
				for op := 0; op < 20000; op++ {
					switch r := rng.Intn(100); {
					case op == 10000:
						q.Reset()
						ref.Reset()
					case r < 55+10*((op/1000)%2) || ref.Len() == 0: // phases that fill, phases that drain
						v := f.next()
						before := q.Late()
						q.Push(v.key, v.tie, v)
						ref.Push(v.key, v.tie, v)
						pushes++
						lates += q.Late() - before
					case r < 95:
						fr, want := q.Front(), ref.Peek()
						if fr.Val != want.Val || fr.Key != want.Key || fr.Tie != want.Tie {
							t.Fatalf("seed %d op %d: front %+v, the heap's %+v", seed, op, *fr.Val, *want.Val)
						}
						if got, want := q.Pop(), ref.Pop(); got != want {
							t.Fatalf("seed %d op %d: popped %+v, the heap %+v", seed, op, *got, *want)
						}
					default:
						i := rng.Intn(ref.Len())
						v := ref.RemoveAt(i)
						q.Remove(v)
						removes++
					}
					if q.Len() != ref.Len() {
						t.Fatalf("seed %d op %d: queue holds %d, the heap %d", seed, op, q.Len(), ref.Len())
					}
				}
				held := q.AppendValues(nil)
				if got, want := ids(held), ids(ref.AppendValues(nil)); !slices.Equal(got, want) {
					t.Fatalf("seed %d: queue holds %v, the heap %v", seed, got, want)
				}
				if all := slices.Collect(q.All()); !slices.Equal(all, held) {
					t.Fatalf("seed %d: All and AppendValues disagree", seed)
				}
				switch {
				case removes < 500:
					t.Fatalf("seed %d: only %d removes", seed, removes)
				case !c.ties && c.late == 0 && lates > 0:
					t.Fatalf("seed %d: an in-order feed put %d values on the late heap", seed, lates)
				case c.late == 1 && lates < pushes*9/10:
					t.Fatalf("seed %d: only %d of %d late pushes reached the late heap", seed, lates, pushes)
				case c.ties && lates < pushes/4:
					t.Fatalf("seed %d: only %d of %d pushes with a smaller tie reached the late heap", seed, lates, pushes)
				}
			}
		})
	}
}

// ids returns the identities of vs, sorted.
func ids(vs []*rec) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = v.id
	}
	slices.Sort(out)
	return out
}

// TestRunIsAFIFOWithABoundedArray: a Queue fed in order is a FIFO — under
// random pushes and pops it returns what a plain slice queue returns — and
// its run's backing array never exceeds ~2× the live high-water mark plus
// the compact threshold, however many values have passed through.
func TestRunIsAFIFOWithABoundedArray(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := NewQueue(recKey)
	var ref []*rec
	high := 0
	for i := 0; i < 200000; i++ {
		if len(ref) == 0 || rng.Intn(100) < 50+10*((i/5000)%2) { // phases that fill, phases that drain
			v := &rec{key: int64(i / 3), id: i}
			q.Push(v.key, v.tie, v)
			ref = append(ref, v)
		} else {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", i, got.id, ref[0].id)
			}
			ref = ref[1:]
		}
		high = max(high, len(ref))
		if q.Len() != len(ref) || q.Late() != 0 || !slices.Equal(q.run[q.head:], ref) {
			t.Fatalf("step %d: run holds %d values, the FIFO %d", i, q.Len(), len(ref))
		}
		if len(ref) > 0 && q.Front().Val != ref[0] {
			t.Fatalf("step %d: front disagrees with the FIFO", i)
		}
		if limit := 2*(2*high+queueMinDead) + 8; cap(q.run) > limit {
			t.Fatalf("step %d: backing array of %d for a high-water mark of %d", i, cap(q.run), high)
		}
	}
	kept := cap(q.run)
	q.Reset()
	if q.Len() != 0 || cap(q.run) != kept {
		t.Fatalf("Reset left %d values in an array of %d, was %d", q.Len(), cap(q.run), kept)
	}
	for _, v := range q.run[:kept] {
		if v != nil {
			t.Fatal("Reset left a value reachable through the backing array")
		}
	}
}

// TestQueueSteadyStateZeroAllocs: once the run and the late heap have
// reached their working size, pushing in and out of order, popping through
// both and compacting the run allocate nothing.
func TestQueueSteadyStateZeroAllocs(t *testing.T) {
	for _, late := range []float64{0, 0.25, 1} {
		t.Run(fmt.Sprint(late), func(t *testing.T) {
			f := &queueFeed{rng: rand.New(rand.NewSource(1)), late: late}
			vals := make([]*rec, 1<<12)
			for i := range vals {
				vals[i] = f.next()
			}
			q := NewQueue(recKey)
			n := 0
			cycle := func() {
				for i := 0; i < 300; i++ {
					v := vals[n%len(vals)]
					q.Push(v.key, v.tie, v)
					n++
				}
				for q.Len() > 100 {
					q.Pop()
				}
			}
			for i := 0; i < 64; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Fatalf("a warmed queue allocated %v times per cycle", allocs)
			}
		})
	}
}
