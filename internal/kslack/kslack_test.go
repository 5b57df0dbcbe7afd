package kslack

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/stream"
)

func collect(out *[]*stream.Tuple) EmitFunc {
	return func(e *stream.Tuple) { *out = append(*out, e) }
}

func tup(ts stream.Time, seq uint64) *stream.Tuple {
	return &stream.Tuple{TS: ts, Seq: seq}
}

// TestFig3Example replays the worked example of Fig. 3 (paper Sec. III-A):
// input timestamps 1,4,3,5,7,8,6,9 through K-slack with K = 1 must release
// 1,3,4,5,7,6,8 (e_{i,7} with delay 2 stays out of order but its delay drops
// to 1) and leave 9 buffered.
func TestFig3Example(t *testing.T) {
	var out []*stream.Tuple
	b := New(1, collect(&out))
	in := []stream.Time{1, 4, 3, 5, 7, 8, 6, 9}
	for i, ts := range in {
		b.Push(tup(ts, uint64(i)))
	}
	want := []stream.Time{1, 3, 4, 5, 7, 6, 8}
	if len(out) != len(want) {
		t.Fatalf("released %d tuples, want %d", len(out), len(want))
	}
	for i, ts := range want {
		if out[i].TS != ts {
			t.Fatalf("release[%d] = %d, want %d", i, out[i].TS, ts)
		}
	}
	if b.Len() != 1 {
		t.Fatalf("buffer should hold 1 tuple (ts 9), holds %d", b.Len())
	}
	// Residual delay of the unsortable tuple (ts 6, original delay 2) is 1
	// time unit in the output, per the paper's observation.
	outDelay := out[5].Delay // annotation carries original delay
	if outDelay != 2 {
		t.Fatalf("delay annotation = %d, want original delay 2", outDelay)
	}
}

func TestDelayAnnotation(t *testing.T) {
	var out []*stream.Tuple
	b := New(0, collect(&out))
	b.Push(tup(10, 0))
	b.Push(tup(4, 1))
	b.Push(tup(12, 2))
	if out[0].Delay != 0 || out[1].Delay != 6 || out[2].Delay != 0 {
		t.Fatalf("delays = %d,%d,%d want 0,6,0", out[0].Delay, out[1].Delay, out[2].Delay)
	}
	if b.MaxDelay() != 6 {
		t.Fatalf("MaxDelay = %d", b.MaxDelay())
	}
}

func TestZeroKReleasesEverythingEligible(t *testing.T) {
	var out []*stream.Tuple
	b := New(0, collect(&out))
	b.Push(tup(5, 0))
	if len(out) != 1 {
		t.Fatal("with K=0 the watermark tuple itself must release")
	}
}

func TestLargeKBuffersUntilFlush(t *testing.T) {
	var out []*stream.Tuple
	b := New(1000, collect(&out))
	for i := 0; i < 10; i++ {
		b.Push(tup(stream.Time(i), uint64(i)))
	}
	if len(out) != 0 {
		t.Fatalf("nothing should release, got %d", len(out))
	}
	b.Flush()
	if len(out) != 10 {
		t.Fatalf("flush must release all, got %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].TS < out[i-1].TS {
			t.Fatal("flush must release in timestamp order")
		}
	}
}

func TestSetKShrinkReleasesEagerly(t *testing.T) {
	var out []*stream.Tuple
	b := New(100, collect(&out))
	b.Push(tup(1, 0))
	b.Push(tup(2, 1))
	b.Push(tup(50, 2))
	if len(out) != 0 {
		t.Fatal("K=100 should buffer everything")
	}
	b.SetK(10)
	if len(out) != 2 {
		t.Fatalf("shrinking K to 10 should release ts 1,2; got %d", len(out))
	}
}

func TestSetKNegativeClamped(t *testing.T) {
	b := New(-5, func(*stream.Tuple) {})
	if b.K() != 0 {
		t.Fatal("negative initial K must clamp to 0")
	}
	b.SetK(-1)
	if b.K() != 0 {
		t.Fatal("negative SetK must clamp to 0")
	}
}

func TestExactDelayEqualsKIsSorted(t *testing.T) {
	// A tuple with delay exactly K must be re-ordered correctly: it is
	// released only when ts+K ≤ iT, i.e. exactly when the watermark reaches
	// its slack bound.
	var out []*stream.Tuple
	b := New(5, collect(&out))
	b.Push(tup(10, 0)) // iT=10
	b.Push(tup(5, 1))  // delay 5 == K; eligible: 5+5 ≤ 10
	if len(out) != 1 || out[0].TS != 5 {
		t.Fatalf("tuple with delay == K must release in order, out=%v", out)
	}
}

// Property (paper Sec. III-A): with K at least the maximum delay, the output
// is fully timestamp-sorted; and regardless of K, output delays never exceed
// max(0, delay−K) in the released stream.
func TestKAtLeastMaxDelaySorts(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var in []*stream.Tuple
		ts := stream.Time(0)
		for i := 0; i < 300; i++ {
			ts += stream.Time(rng.Intn(5))
			d := stream.Time(rng.Intn(20))
			in = append(in, &stream.Tuple{TS: maxT(0, ts-d), Seq: uint64(i)})
		}
		maxDelay, _ := stream.Batch(in).MaxDelay()
		var out []*stream.Tuple
		b := New(maxDelay, collect(&out))
		for _, e := range in {
			b.Push(e)
		}
		b.Flush()
		if len(out) != len(in) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i].TS < out[i-1].TS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: K-slack never loses or duplicates tuples.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, kRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		k := stream.Time(kRaw % 50)
		var out []*stream.Tuple
		b := New(k, collect(&out))
		n := 200
		ts := stream.Time(0)
		for i := 0; i < n; i++ {
			ts += stream.Time(rng.Intn(4))
			b.Push(&stream.Tuple{TS: maxT(0, ts-stream.Time(rng.Intn(30))), Seq: uint64(i)})
		}
		b.Flush()
		if len(out) != n {
			return false
		}
		seen := map[uint64]bool{}
		for _, e := range out {
			if seen[e.Seq] {
				return false
			}
			seen[e.Seq] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func maxT(a, b stream.Time) stream.Time {
	if a > b {
		return a
	}
	return b
}

// Invariant: Arrived() == Released() + Len() at every point, including
// across SetK shrink/grow sequences and the final flush.
func TestArrivedEqualsReleasedPlusBuffered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var released int64
		b := New(stream.Time(rng.Intn(50)), func(*stream.Tuple) { released++ })
		check := func() bool {
			return b.Arrived() == b.Released()+int64(b.Len()) && b.Released() == released
		}
		ts := stream.Time(0)
		for i := 0; i < 300; i++ {
			switch rng.Intn(10) {
			case 0:
				b.SetK(stream.Time(rng.Intn(10))) // shrink: eager release
			case 1:
				b.SetK(stream.Time(50 + rng.Intn(100))) // grow
			default:
				ts += stream.Time(rng.Intn(4))
				b.Push(&stream.Tuple{TS: maxT(0, ts-stream.Time(rng.Intn(30))), Seq: uint64(i)})
			}
			if !check() {
				return false
			}
		}
		b.Flush()
		return check() && b.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// released is what the differential compares of an emitted tuple; a restore
// replaces the pointers, so identity is (TS, Seq).
type released struct {
	ts, delay stream.Time
	seq       uint64
}

// TestMatchesSingleHeapReference holds the run + late-heap Buffer against
// the one-heap reference of reference_test.go: over random disorder mixes
// (from fully ordered to every tuple late, with duplicate timestamps),
// random SetK shrink/grow schedules, evictions and a mid-stream
// State→Restore of both sides, the emit sequence, the counters and the
// State agree after every step.
func TestMatchesSingleHeapReference(t *testing.T) {
	lateFracs := []float64{0, 0.05, 0.25, 0.6, 1}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lateFrac := lateFracs[seed%int64(len(lateFracs))]
		maxDelay := 1 + rng.Intn(400)
		var gotOut, refOut []released
		gotEmit := func(e *stream.Tuple) { gotOut = append(gotOut, released{e.TS, e.Delay, e.Seq}) }
		refEmit := func(e *stream.Tuple) { refOut = append(refOut, released{e.TS, e.Delay, e.Seq}) }
		k0 := stream.Time(rng.Intn(300))
		got, ref := New(k0, gotEmit), newRefBuffer(k0, refEmit)

		const steps = 600
		restoreAt := rng.Intn(steps)
		checked := 0
		check := func(step int, op string) {
			t.Helper()
			at := fmt.Sprintf("seed %d step %d (%s)", seed, step, op)
			if len(gotOut) != len(refOut) {
				t.Fatalf("%s: emitted %d tuples, reference %d", at, len(gotOut), len(refOut))
			}
			for ; checked < len(gotOut); checked++ {
				if gotOut[checked] != refOut[checked] {
					t.Fatalf("%s: emit %d = %+v, reference %+v", at, checked, gotOut[checked], refOut[checked])
				}
			}
			if got.Arrived() != ref.arrived || got.Released() != ref.released || got.Shed() != ref.shed ||
				got.Len() != len(ref.heap) || got.MaxDelay() != ref.maxDelay || got.K() != ref.k || got.LocalT() != ref.localT {
				t.Fatalf("%s: counters arrived/released/shed/len/maxDelay = %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d", at,
					got.Arrived(), got.Released(), got.Shed(), got.Len(), got.MaxDelay(),
					ref.arrived, ref.released, ref.shed, len(ref.heap), ref.maxDelay)
			}
			gtt, rtt := fault.NewTupleTable(), fault.NewTupleTable()
			gst, rst := got.State(gtt), ref.State(rtt)
			if !reflect.DeepEqual(gst, rst) || !reflect.DeepEqual(gtt.Recs, rtt.Recs) {
				t.Fatalf("%s: State %+v, reference %+v", at, gst, rst)
			}
		}

		ts := stream.Time(0)
		for i := 0; i < steps; i++ {
			op := "push"
			switch r := rng.Intn(20); {
			case r == 0:
				op = "shrink"
				k := stream.Time(rng.Intn(20))
				got.SetK(k)
				ref.SetK(k)
			case r == 1:
				op = "grow"
				k := stream.Time(100 + rng.Intn(400))
				got.SetK(k)
				ref.SetK(k)
			case r == 2 && got.Len() > 0:
				op = "evict"
				n := rng.Intn(got.Len())
				for e := range got.All() {
					if n == 0 {
						ref.evict(e.TS, e.Seq)
						got.Evict(e)
						break
					}
					n--
				}
			default:
				ts += stream.Time(rng.Intn(4)) // 0: duplicate timestamps
				e := stream.Tuple{TS: ts, Seq: uint64(i)}
				if rng.Float64() < lateFrac {
					e.TS = maxT(0, ts-stream.Time(1+rng.Intn(maxDelay)))
				}
				g, r := e, e
				got.Push(&g)
				ref.Push(&r)
			}
			check(i, op)
			if i == restoreAt {
				gtt, rtt := fault.NewTupleTable(), fault.NewTupleTable()
				gst, rst := got.State(gtt), ref.State(rtt)
				got, ref = New(0, gotEmit), newRefBuffer(0, refEmit)
				got.Restore(gst, fault.NewTupleArena(gtt.Recs))
				ref.Restore(rst, fault.NewTupleArena(rtt.Recs))
				check(i, "restore")
			}
		}
		got.Flush()
		ref.Flush()
		check(steps, "flush")
		if got.Len() != 0 {
			t.Fatalf("seed %d: %d tuples buffered after Flush", seed, got.Len())
		}
	}
}

// x3's arrival rate and the K its loop settles around: ≈ 300 tuples
// buffered per stream.
const (
	benchGap = 10 * stream.Millisecond
	benchK   = 3 * stream.Second
)

// feed is an endless arrival sequence over a ring of reused tuples (far
// longer than any buffer occupancy, so a tuple is released long before it
// is handed out again): iT advances by benchGap per tuple and rel holds
// each slot's timestamp relative to the start of its lap.
type feed struct {
	ring []stream.Tuple
	rel  []stream.Time
	n    uint64
}

const feedLap = 1 << 14

func newFeed(rel func(i int) stream.Time) *feed {
	f := &feed{ring: make([]stream.Tuple, feedLap), rel: make([]stream.Time, feedLap)}
	for i := range f.rel {
		f.rel[i] = rel(i)
	}
	return f
}

func (f *feed) next() *stream.Tuple {
	i := f.n % feedLap
	e := &f.ring[i]
	// Laps start one delay domain above zero so no timestamp goes negative.
	e.TS = 20*stream.Second + stream.Time(f.n/feedLap)*feedLap*benchGap + f.rel[i]
	e.Seq = f.n
	f.n++
	return e
}

// inOrderFeed: every tuple advances iT.
func inOrderFeed() *feed {
	return newFeed(func(i int) stream.Time { return stream.Time(i) * benchGap })
}

// lateFeed: one tuple in four is delayed by up to 20 s (the paper's delay
// domain), skewed toward short delays like the synthetic generators.
func lateFeed() *feed {
	rng := rand.New(rand.NewSource(1))
	return newFeed(func(i int) stream.Time {
		ts := stream.Time(i) * benchGap
		if rng.Intn(4) == 0 {
			u := rng.Float64()
			ts -= stream.Time(u*u*u*2000) * benchGap
		}
		return ts
	})
}

// reverseFeed: blocks of one buffer's worth of tuples, each block in
// descending timestamp order — every tuple but a block's first sorts before
// everything buffered, the worst case for a heap push.
func reverseFeed() *feed {
	const block = int(benchK / benchGap)
	return newFeed(func(i int) stream.Time {
		return stream.Time(i/block*block+block-1-i%block) * benchGap
	})
}

var benchFeeds = []struct {
	name string
	new  func() *feed
}{
	{"inorder", inOrderFeed},
	{"late25", lateFeed},
	{"reverse", reverseFeed},
}

// TestPushSteadyStateZeroAllocs: once the run and the late heap have
// reached their high-water marks, Push — append, heap push, release,
// compaction — never allocates.
func TestPushSteadyStateZeroAllocs(t *testing.T) {
	for _, bf := range benchFeeds[:2] {
		t.Run(bf.name, func(t *testing.T) {
			f := bf.new()
			buf := New(benchK, func(*stream.Tuple) {})
			for i := 0; i < 2*feedLap; i++ {
				buf.Push(f.next())
			}
			if buf.Len() == 0 {
				t.Fatal("feed leaves nothing buffered; the test would measure the bypass")
			}
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < 1024; i++ {
					buf.Push(f.next())
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state Push allocated %v times per 1024 tuples", allocs)
			}
		})
	}
}

// BenchmarkPush prices one arrival at x3-like occupancy on three feeds: in
// order (the run alone), 25 % late (run + late heap) and every tuple late
// (the late heap alone — the case that must stay no slower than one heap).
func BenchmarkPush(b *testing.B) {
	for _, bf := range benchFeeds {
		b.Run(bf.name, func(b *testing.B) {
			f := bf.new()
			buf := New(benchK, func(*stream.Tuple) {})
			for i := 0; i < feedLap; i++ {
				buf.Push(f.next())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Push(f.next())
			}
		})
	}
}

// TestRestoreRefusesImpossibleStates: a buffered id outside the snapshot's
// tuple table is refused with a "kslack: restore: …" panic rather than an
// index panic, and leaves the buffer untouched.
func TestRestoreRefusesImpossibleStates(t *testing.T) {
	tt := fault.NewTupleTable()
	tt.ID(tup(5, 0))
	for _, tc := range []struct {
		name string
		st   State
		want string
	}{
		{"an id past the tuple table", State{K: 3, Buffered: []int32{0, 1}}, "kslack: restore: buffered tuple id 1 outside a table of 1"},
		{"a negative id", State{K: 3, Buffered: []int32{-1}}, "kslack: restore: buffered tuple id -1 outside a table of 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := New(1, func(*stream.Tuple) {})
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), tc.want) {
					t.Fatalf("recovered %v, want a panic starting %q", r, tc.want)
				}
				if b.K() != 1 || b.Len() != 0 {
					t.Fatalf("a refused restore left K %d and %d buffered", b.K(), b.Len())
				}
			}()
			b.Restore(tc.st, fault.NewTupleArena(tt.Recs))
		})
	}
}
