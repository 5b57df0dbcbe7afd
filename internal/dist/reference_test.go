package dist

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/join"
	"repro/internal/pq"
	"repro/internal/stream"
)

// The predecessors of the stage shell's two sorters, kept as references, the
// differentials that hold pwindow's run + late heap and pstage's lanes + late
// heap against them, and the worst-case timings.
//
// Mutation checks (each must fail a test here): `>=` → `>` in the append
// test of pwindow.insert or pstage.hold sends in-order ties to the late heap
// and fails the "an in-order feed never touches the late heap" assertions;
// appending unconditionally, dropping ord from syncFront's comparison (the
// equal-ts tie across sides), or attributing a lane pop to the other side
// each fail the set / sequence / counts comparison.
//
// Timings of record (2-CPU shared host, -cpu 1, two sessions; ns per
// insert+expire for the window, per stage push for the Synchronizer; new vs
// the single heap): in order 12–17 vs 76–81 and 78–83 vs 99–108; 25 % late
// 30–32 vs 91–117 and 101–120 vs 127; every entry late (descending blocks)
// 62–88 vs 97–120 and 85–98 vs 83–88 — the deadline run is faster even when
// nothing takes it, the lanes are at parity within the host's noise. The
// raw lines are in docs/history/PR21_tree_shell.md.

// refWindow is a stage window's deadline order as one heap over every entry
// — the structure pwindow's run + late heap replaced — kept as the reference
// the differential test holds pwindow against.
type refWindow struct {
	heap pq.Heap[*event]
	free func(*event)
}

func (w *refWindow) len() int { return w.heap.Len() }

func (w *refWindow) insert(ev *event) { w.heap.Push(int64(ev.deadline), 0, ev) }

func (w *refWindow) expire(t stream.Time) {
	for w.heap.Len() > 0 && stream.Time(w.heap.Peek().Key) < t {
		w.free(w.heap.Pop())
	}
}

// refSync is a stage Synchronizer (Alg. 1, m = 2) over one heap of every
// buffered event — the structure pstage's two lanes + late heap replaced.
// process receives each released event with its side; sideOf classifies a
// popped event, as the single heap had to for every pop.
type refSync struct {
	tsync   stream.Time
	buf     pq.Heap[*event]
	counts  [2]int
	open    [2]bool
	ord     uint64
	sideOf  func(*event) int
	process func(*event, int)
}

func (s *refSync) push(ev *event, side int) {
	ev.ord = s.ord
	s.ord++
	if ev.ts > s.tsync {
		s.buf.Push(int64(ev.ts), ev.ord, ev)
		s.counts[side]++
		s.drainSync()
		return
	}
	s.process(ev, side)
}

func (s *refSync) drainSync() {
	for s.buf.Len() > 0 && s.syncReady() {
		s.tsync = stream.Time(s.buf.Peek().Key)
		for s.buf.Len() > 0 && stream.Time(s.buf.Peek().Key) == s.tsync {
			ev := s.buf.Pop()
			side := s.sideOf(ev)
			s.counts[side]--
			s.process(ev, side)
		}
	}
}

func (s *refSync) syncReady() bool {
	for i := 0; i < 2; i++ {
		if s.open[i] && s.counts[i] == 0 {
			return false
		}
	}
	return true
}

func (s *refSync) closeSide(side int) {
	if !s.open[side] {
		return
	}
	s.open[side] = false
	s.drainSync()
}

// lateShares are the differentials' disorder levels: the share of inserts
// (pushes) made to sort before the newest in-order one.
var lateShares = []float64{0, 0.25, 1}

// deadlineFeed draws the next insert's deadline: in order (at or past every
// earlier in-order deadline, ties included) or, with probability late,
// strictly below the previous insert's — which keeps a fully late feed
// descending, the late heap's worst case.
type deadlineFeed struct {
	rng            *rand.Rand
	late           float64
	w              stream.Time
	inOrder, prevD stream.Time
}

func (f *deadlineFeed) next(now stream.Time) stream.Time {
	d := max(f.inOrder, now+f.w)
	if f.prevD > now && f.rng.Float64() < f.late {
		d = f.prevD - 1 - stream.Time(f.rng.Intn(3))
	} else {
		f.inOrder = d
	}
	f.prevD = d
	return d
}

// TestDeadlineWindowMatchesHeapReference: on random insert/expire traffic at
// 0 %, 25 % and 100 % late, pwindow's run + late heap expires exactly the
// entries the single deadline heap does at every expire (as a set — the
// order among entries expired together is unspecified) and holds as many
// afterwards; an in-order feed, deadline ties included, never touches the
// late heap.
func TestDeadlineWindowMatchesHeapReference(t *testing.T) {
	for _, late := range lateShares {
		t.Run(fmt.Sprintf("late%.0f", late*100), func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				feed := &deadlineFeed{rng: rng, late: late, w: 40}
				var got, want []uint64
				w := newPwindow(false, false)
				w.free = func(ev *event) { got = append(got, ev.ord) }
				ref := &refWindow{free: func(ev *event) { want = append(want, ev.ord) }}
				var now stream.Time
				lateInserts := 0
				for op := 0; op < 3000; op++ {
					now += stream.Time(rng.Intn(3))
					if rng.Intn(3) > 0 {
						d := feed.next(now)
						before := w.late.Len()
						w.insert(&event{deadline: d, ord: uint64(op)})
						ref.insert(&event{deadline: d, ord: uint64(op)})
						lateInserts += w.late.Len() - before
						continue
					}
					got, want = got[:0], want[:0]
					w.expire(now)
					ref.expire(now)
					sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
					sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("seed %d op %d: expire(%d) dropped %v, the heap %v", seed, op, now, got, want)
					}
					if w.len() != ref.len() {
						t.Fatalf("seed %d op %d: %d entries held, the heap holds %d", seed, op, w.len(), ref.len())
					}
					if n := len(w.appendLive(nil)); n != w.len() {
						t.Fatalf("seed %d op %d: appendLive sees %d of %d entries", seed, op, n, w.len())
					}
				}
				switch {
				case late == 0 && lateInserts > 0:
					t.Fatalf("seed %d: %d in-order inserts went to the late heap", seed, lateInserts)
				case late == 1 && lateInserts < 1000:
					t.Fatalf("seed %d: only %d inserts reached the late heap; the feed no longer exercises it", seed, lateInserts)
				}
			}
		})
	}
}

// syncStage builds a two-leaf stage whose keys never match (every event
// carries its own), so pushing events into it exercises the Synchronizer and
// the windows without deriving results.
func syncStage() *pstage {
	w := []stream.Time{50, 50}
	return NewPlanTree(join.EquiChain(2, 0), w, Spine(2), 0, nil).stages[0]
}

// stageEvent draws an event for side from the stage arena, as pleaf.emit
// does, carrying id as both its equi key and its delay annotation — the
// latter is how the productivity hook tells the test which event a process
// call was for.
func stageEvent(s *pstage, side int, ts stream.Time, id int) *event {
	ev := s.alloc()
	ev.ts, ev.deadline, ev.delay = ts, ts+50, stream.Time(id)
	ev.parts[side] = &stream.Tuple{TS: ts, Src: side, Attrs: []float64{float64(id)}}
	return ev
}

type released struct {
	ts  stream.Time
	ord uint64
}

// TestStageSyncMatchesSingleHeapReference: on random two-sided feeds at 0 %,
// 25 % and 100 % late — timestamps tie within and across sides, and one side
// is starved for stretches so the buffer fills — the stage's lanes + late
// heap release the (ts, ord) sequence of the single heap, event for event,
// with the same counts[side] after every push and close (a release
// attributed to the wrong side shows there); an in-order feed never touches
// the late heap.
func TestStageSyncMatchesSingleHeapReference(t *testing.T) {
	for _, late := range lateShares {
		t.Run(fmt.Sprintf("late%.0f", late*100), func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var got, want []released
				s := syncStage()
				s.prodHook = func(_ int, ts, delay stream.Time, _, _ int64, _ bool) {
					got = append(got, released{ts, uint64(delay)})
				}
				ref := &refSync{open: [2]bool{true, true}, sideOf: s.sideOf}
				ref.process = func(ev *event, _ int) { want = append(want, released{ev.ts, ev.ord}) }
				checked := 0
				check := func(op int, what string) {
					t.Helper()
					if fmt.Sprint(got[checked:]) != fmt.Sprint(want[checked:]) {
						t.Fatalf("seed %d op %d (%s): released %v, the heap %v", seed, op, what, got[checked:], want[checked:])
					}
					checked = len(got)
					if s.counts != ref.counts {
						t.Fatalf("seed %d op %d (%s): counts %v, the heap's %v", seed, op, what, s.counts, ref.counts)
					}
					if n := len(s.syncBuffered()); n != s.counts[0]+s.counts[1] {
						t.Fatalf("seed %d op %d (%s): syncBuffered sees %d of %d events", seed, op, what, n, s.counts[0]+s.counts[1])
					}
				}
				var tail [2]stream.Time // newest in-order ts per side
				var prev [2]stream.Time
				side, lateHolds, buffered := 0, 0, 0
				for op := 0; op < 3000; op++ {
					if rng.Intn(12) == 0 {
						side = 1 - side
					}
					ts := tail[side] + stream.Time(rng.Intn(2))
					if prev[side] > s.tsync+1 && rng.Float64() < late {
						ts = prev[side] - 1
					} else {
						tail[side] = ts
					}
					prev[side] = ts
					before := s.late.Len()
					s.push(stageEvent(s, side, ts, op), side)
					ref.push(stageEvent(s, side, ts, op), side)
					if d := s.late.Len() - before; d > 0 {
						lateHolds += d
					}
					buffered = max(buffered, s.counts[0]+s.counts[1])
					check(op, "push")
				}
				for sd := 0; sd < 2; sd++ {
					s.closeSide(sd)
					ref.closeSide(sd)
					check(3000+sd, "close")
				}
				if len(got) != 3000 {
					t.Fatalf("seed %d: %d of 3000 events released", seed, len(got))
				}
				switch {
				case buffered < 8:
					t.Fatalf("seed %d: at most %d events buffered; the feed no longer fills the Synchronizer", seed, buffered)
				case late == 0 && lateHolds > 0:
					t.Fatalf("seed %d: %d in-order events went to the late heap", seed, lateHolds)
				case late == 1 && lateHolds < 300:
					t.Fatalf("seed %d: only %d events reached the late heap; the feed no longer exercises it", seed, lateHolds)
				}
			}
		})
	}
}

// ---- worst-case timing ----

const benchLap = 1 << 12

// benchDeadlines fills one lap of relative deadlines: in order, one in four
// late by up to a window, or blocks of one window's worth in descending
// order (every entry but a block's first sorts before everything held — the
// case that must stay no slower than the single heap).
var benchDeadlines = []struct {
	name string
	rel  func(rng *rand.Rand, i int) stream.Time
}{
	{"inorder", func(_ *rand.Rand, i int) stream.Time { return stream.Time(i) }},
	{"late25", func(rng *rand.Rand, i int) stream.Time {
		if rng.Intn(4) == 0 {
			return stream.Time(i - rng.Intn(benchLive))
		}
		return stream.Time(i)
	}},
	{"reverse", func(_ *rand.Rand, i int) stream.Time {
		return stream.Time(i/benchLive*benchLive + benchLive - 1 - i%benchLive)
	}},
}

// benchLive is the benchmarks' steady occupancy: tree3-perstage's leaf
// windows hold a few hundred entries.
const benchLive = 256

type deadlineOrder interface {
	insert(*event)
	expire(stream.Time)
}

// BenchmarkDeadlineWindow prices one insert + expire at a steady benchLive
// entries, on the run + late heap and on the single heap it replaced.
func BenchmarkDeadlineWindow(b *testing.B) {
	for _, bf := range benchDeadlines {
		for _, impl := range []string{"run+late", "heap"} {
			b.Run(bf.name+"/"+impl, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				rel := make([]stream.Time, benchLap)
				for i := range rel {
					rel[i] = bf.rel(rng, i)
				}
				ring := make([]event, benchLap)
				var w deadlineOrder = newPwindow(false, false)
				if impl == "heap" {
					w = &refWindow{free: func(*event) {}}
				}
				step := func(n int) {
					i := n % benchLap
					ev := &ring[i]
					ev.deadline = stream.Time(n/benchLap*benchLap) + rel[i]
					w.insert(ev)
					w.expire(stream.Time(n/benchLive*benchLive - benchLive))
				}
				for n := 0; n < benchLap; n++ {
					step(n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for n := benchLap; n < benchLap+b.N; n++ {
					step(n)
				}
			})
		}
	}
}

// BenchmarkStageSync prices one stage push — Synchronizer plus the process
// step of a stage that derives nothing — with side 1 lagging side 0 by
// benchLag events' worth of time, so side 0 always has that many buffered:
// in order, one side-0 event in four late (still ahead of the Synchronizer),
// and side 0 in descending blocks that side 1 releases one block at a time
// (every side-0 event but a block's first goes through the late heap). The
// "heap" variant is the single-heap Synchronizer driving the same process
// step.
func BenchmarkStageSync(b *testing.B) {
	const benchLag = 32
	feeds := []struct {
		name string
		// ts returns the n-th push's side and timestamp.
		ts func(rng *rand.Rand, n int) (int, stream.Time)
	}{
		{"inorder", func(_ *rand.Rand, n int) (int, stream.Time) {
			return n % 2, stream.Time(n/2 + (1-n%2)*benchLag)
		}},
		{"late25", func(rng *rand.Rand, n int) (int, stream.Time) {
			side, ts := n%2, stream.Time(n/2+(1-n%2)*benchLag)
			if side == 0 && rng.Intn(4) == 0 {
				ts -= stream.Time(rng.Intn(benchLag - 1))
			}
			return side, ts
		}},
		{"reverse", func(_ *rand.Rand, n int) (int, stream.Time) {
			blk, i := n/(benchLag+1), n%(benchLag+1)
			if i == benchLag {
				return 1, stream.Time((blk + 1) * benchLag)
			}
			return 0, stream.Time((blk+1)*benchLag - i)
		}},
	}
	for _, bf := range feeds {
		for _, impl := range []string{"lanes+late", "heap"} {
			b.Run(bf.name+"/"+impl, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				s := syncStage()
				push := s.push
				if impl == "heap" {
					ref := &refSync{open: [2]bool{true, true}, sideOf: s.sideOf}
					ref.process = s.process
					push = func(ev *event, side int) {
						s.stampKey(ev, side)
						ref.push(ev, side)
					}
				}
				// One key per side: nothing matches, and the windows' hash
				// indexes stay at one bucket each.
				tuples := [2]stream.Tuple{{Attrs: []float64{0}}, {Attrs: []float64{1}}}
				step := func(n int) {
					side, ts := bf.ts(rng, n)
					ev := s.alloc()
					ev.ts, ev.deadline = ts, ts+50
					ev.parts[side] = &tuples[side]
					push(ev, side)
				}
				for n := 0; n < benchLap; n++ {
					step(n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for n := benchLap; n < benchLap+b.N; n++ {
					step(n)
				}
			})
		}
	}
}
