package syncer

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/pq"
	"repro/internal/stream"
)

// refSynchronizer is the Synchronizer as it was before the lanes: everything
// buffered in one (TS, Seq) heap. Kept as the reference the lanes + late heap
// are held against, pop for pop.
type refSynchronizer struct {
	tsync   stream.Time
	heap    pq.Heap[*stream.Tuple]
	counts  []int
	open    []bool
	starved int
	emit    EmitFunc
}

func newRef(m int, emit EmitFunc) *refSynchronizer {
	s := &refSynchronizer{counts: make([]int, m), open: make([]bool, m), starved: m, emit: emit}
	for i := range s.open {
		s.open[i] = true
	}
	return s
}

func (s *refSynchronizer) Push(e *stream.Tuple) {
	if e.TS <= s.tsync {
		s.emit(e)
		return
	}
	s.heap.Push(int64(e.TS), e.Seq, e)
	if s.counts[e.Src] == 0 && s.open[e.Src] {
		s.starved--
	}
	s.counts[e.Src]++
	s.drain()
}

func (s *refSynchronizer) Close(i int) {
	if !s.open[i] {
		return
	}
	s.open[i] = false
	if s.counts[i] == 0 {
		s.starved--
	}
	s.drain()
}

func (s *refSynchronizer) drain() {
	for s.heap.Len() > 0 && s.starved == 0 {
		s.tsync = stream.Time(s.heap.Peek().Key)
		for s.heap.Len() > 0 && stream.Time(s.heap.Peek().Key) == s.tsync {
			e := s.heap.Pop()
			s.counts[e.Src]--
			if s.counts[e.Src] == 0 && s.open[e.Src] {
				s.starved++
			}
			s.emit(e)
		}
	}
}

// lateFeed builds n tuples over m streams, each stream delivering burst
// tuples in a row as a K-slack releasing a run does, whose timestamps
// advance a few units per tuple — so equal timestamps across streams are
// common — with latePct % of them stepped back behind their stream's newest,
// as a K-slack forwards a tuple it could not hold long enough.
func lateFeed(rng *rand.Rand, m, n, burst, latePct int) []*stream.Tuple {
	feed := make([]*stream.Tuple, n)
	newest := make([]stream.Time, m)
	var clock stream.Time
	src := 0
	for i := range feed {
		clock += stream.Time(rng.Intn(3))
		if i%burst == 0 {
			src = rng.Intn(m)
		}
		ts := max(clock, newest[src])
		if rng.Intn(100) < latePct {
			ts = max(0, newest[src]-stream.Time(1+rng.Intn(6)))
		}
		newest[src] = max(newest[src], ts)
		feed[i] = tup(src, ts, uint64(i))
	}
	return feed
}

// lateLen returns how many tuples s holds on its lanes' late heaps.
func lateLen[V comparable](s *Sync[V]) int {
	n := 0
	for i := range s.lanes {
		n += s.lanes[i].Late()
	}
	return n
}

// TestMatchesSingleHeapReference: at 0 %, 25 % and 100 % late, with streams
// closing mid-feed and a checkpoint/restore cut in the middle, the lanes +
// late heap emit exactly the single heap's sequence and report its TSync and
// Len after every push; an in-order feed never touches the late heap.
func TestMatchesSingleHeapReference(t *testing.T) {
	for _, latePct := range []int{0, 25, 100} {
		for _, m := range []int{2, 3, 5} {
			t.Run(fmt.Sprintf("late%d/m%d", latePct, m), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*m + latePct)))
				feed := lateFeed(rng, m, 4000, 1+3*(m-2), latePct)
				var got, want []*stream.Tuple
				emit := func(e *stream.Tuple) { got = append(got, e) }
				s := New(m, emit)
				ref := newRef(m, func(e *stream.Tuple) { want = append(want, e) })
				ties := 0
				for i, e := range feed {
					switch {
					case i == len(feed)/2: // cut: the restored buffer must continue the sequence
						tt := fault.NewTupleTable()
						st := s.State(tt)
						s = New(m, emit)
						s.Restore(st, fault.NewTupleArena(tt.Recs))
					case i > len(feed)*3/4 && rng.Intn(400) == 0:
						c := rng.Intn(m)
						s.Close(c)
						ref.Close(c)
					}
					s.Push(e)
					ref.Push(e)
					if len(got) != len(want) || s.TSync() != ref.tsync || s.Len() != ref.heap.Len() {
						t.Fatalf("push %d (%v): %d released at TSync %d holding %d, reference %d at %d holding %d",
							i, e, len(got), s.TSync(), s.Len(), len(want), ref.tsync, ref.heap.Len())
					}
					if late := lateLen(&s.Sync); latePct == 0 && late != 0 {
						t.Fatalf("push %d: an in-order feed put %d tuples on the late heap", i, late)
					}
				}
				for c := 0; c < m; c++ {
					s.Close(c)
					ref.Close(c)
				}
				if s.Len() != 0 || len(got) != len(feed) {
					t.Fatalf("released %d of %d, %d still held after closing every stream", len(got), len(feed), s.Len())
				}
				for i := range want {
					if g, w := got[i], want[i]; g.Src != w.Src || g.TS != w.TS || g.Seq != w.Seq { // the restore re-made the held tuples
						t.Fatalf("release %d is %v, the single heap's is %v", i, got[i], want[i])
					}
					if i > 0 && want[i].TS == want[i-1].TS && want[i].Src != want[i-1].Src {
						ties++
					}
				}
				if ties < 100 {
					t.Fatalf("only %d cross-stream equal-timestamp releases: the feed does not exercise ties", ties)
				}
			})
		}
	}
}

// lapFeed is lateFeed over three streams, finely interleaved as three
// K-slack buffers release it, with stream 2 lag time units behind the
// others, replayed lap after lap with the timestamps shifted past the
// previous lap. next(i) is the i-th tuple; a lap is lap tuples long.
func lapFeed(lag stream.Time, latePct int) (next func(i int) *stream.Tuple, lap int) {
	feed := lateFeed(rand.New(rand.NewSource(1)), 3, 1<<14, 1, latePct)
	for _, e := range feed {
		if e.Src == 2 {
			e.TS += lag
		}
	}
	span := feed[len(feed)-1].TS + lag + 1
	return func(i int) *stream.Tuple {
		e := feed[i%len(feed)]
		if i >= len(feed) {
			e.TS += span
		}
		return e
	}, len(feed)
}

// BenchmarkPush measures one Push (with the releases it causes) on a
// three-stream lapFeed, through the lanes and through the single heap:
// shallow (the streams level, a handful buffered) and deep (one stream 300
// time units behind the others, ≈ 200 buffered), in order and with one
// tuple in four late.
func BenchmarkPush(b *testing.B) {
	for _, c := range []struct {
		name    string
		lag     stream.Time
		latePct int
	}{{"shallow/inorder", 0, 0}, {"shallow/late25", 0, 25}, {"deep/inorder", 300, 0}, {"deep/late25", 300, 25}} {
		var n int
		b.Run(c.name+"/lanes", func(b *testing.B) {
			next, warm := lapFeed(c.lag, c.latePct)
			s := New(3, func(*stream.Tuple) { n++ })
			for i := 0; i < warm; i++ {
				s.Push(next(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Push(next(warm + i))
			}
			b.ReportMetric(float64(s.Len()), "held")
		})
		b.Run(c.name+"/heap", func(b *testing.B) {
			next, warm := lapFeed(c.lag, c.latePct)
			s := newRef(3, func(*stream.Tuple) { n++ })
			for i := 0; i < warm; i++ {
				s.Push(next(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Push(next(warm + i))
			}
			b.ReportMetric(float64(s.heap.Len()), "held")
		})
	}
}

// TestSyncSteadyStateZeroAllocs: once its lanes and late heaps have reached
// their high-water marks, the three-lane Synchronizer — run appends,
// late-heap pushes, releases, immediate forwards — allocates nothing, in
// order and with one tuple in four late.
func TestSyncSteadyStateZeroAllocs(t *testing.T) {
	for _, latePct := range []int{0, 25} {
		t.Run(fmt.Sprintf("late%d", latePct), func(t *testing.T) {
			next, lap := lapFeed(300, latePct)
			s := New(3, func(*stream.Tuple) {})
			i := 0
			for ; i < 2*lap; i++ {
				s.Push(next(i))
			}
			if s.Len() == 0 {
				t.Fatal("the feed leaves nothing buffered; the test would measure the bypass")
			}
			allocs := testing.AllocsPerRun(20, func() {
				for k := 0; k < 1024; k++ {
					s.Push(next(i))
					i++
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state Push allocated %v times per 1024 tuples", allocs)
			}
		})
	}
}
