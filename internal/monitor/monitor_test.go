package monitor

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fifo"
	"repro/internal/stream"
)

func TestProducedWindow(t *testing.T) {
	m := New(100, 0)
	m.AddResults(10, 3)
	m.AddResults(50, 2)
	m.AddResults(120, 1)
	m.Advance(150) // window [50, 150]: drops ts 10, keeps ts 50
	if m.Produced() != 3 {
		t.Fatalf("Produced = %d, want 3", m.Produced())
	}
	m.Advance(220) // drops ts 50; ts 120 == bound stays
	if m.Produced() != 1 {
		t.Fatalf("Produced = %d, want 1", m.Produced())
	}
	m.Advance(221) // now ts 120 is strictly older than the bound
	if m.Produced() != 0 {
		t.Fatalf("Produced = %d, want 0", m.Produced())
	}
}

func TestBoundaryInclusive(t *testing.T) {
	// The framework-wide boundary convention: scope is the closed interval
	// [now − span, now] and expired means strictly older, matching the join
	// operator's window scope [onT − W, onT]. A result at exactly the
	// boundary is still in the window.
	m := New(100, 0)
	m.AddResults(100, 1)
	m.Advance(200) // bound = 100 → ts 100 stays (expired means ts < bound)
	if m.Produced() != 1 {
		t.Fatalf("ts == bound must be kept, Produced = %d", m.Produced())
	}
	m.Advance(201) // now ts 100 < 101 → pruned
	if m.Produced() != 0 {
		t.Fatalf("ts below bound must be pruned, Produced = %d", m.Produced())
	}
	m2 := New(100, 0)
	m2.AddResults(99, 1)
	m2.Advance(200)
	if m2.Produced() != 0 {
		t.Fatalf("ts outside window must be pruned, Produced = %d", m2.Produced())
	}
}

func TestZeroAndNegativeAddIgnored(t *testing.T) {
	m := New(100, 0)
	m.AddResults(10, 0)
	m.AddResults(10, -5)
	if m.Produced() != 0 {
		t.Fatal("non-positive adds must be ignored")
	}
}

func TestTrueEstimateRing(t *testing.T) {
	m := New(100, 3)
	m.PushTrueEstimate(10)
	m.PushTrueEstimate(20)
	if m.TrueEstimate() != 30 {
		t.Fatalf("TrueEstimate = %v", m.TrueEstimate())
	}
	m.PushTrueEstimate(30)
	m.PushTrueEstimate(40) // evicts 10
	if m.TrueEstimate() != 90 {
		t.Fatalf("TrueEstimate = %v, want 20+30+40", m.TrueEstimate())
	}
	m.PushTrueEstimate(50) // evicts 20
	if m.TrueEstimate() != 120 {
		t.Fatalf("TrueEstimate = %v, want 30+40+50", m.TrueEstimate())
	}
}

func TestZeroCapacityRing(t *testing.T) {
	m := New(100, 0)
	m.PushTrueEstimate(10)
	if m.TrueEstimate() != 0 {
		t.Fatal("zero-capacity ring must stay empty")
	}
}

func TestCompaction(t *testing.T) {
	m := New(10, 0)
	for i := 0; i < 5000; i++ {
		m.AddResults(stream.Time(i), 1)
		m.Advance(stream.Time(i))
	}
	// The closed scope [now−10, now] spans 11 integer timestamps.
	if m.Produced() > 11 {
		t.Fatalf("window of 10 should retain ≤11 results, got %d", m.Produced())
	}
}

// TestRestoreRefusesImpossibleStates: a state no monitor of this shape can
// have captured is refused with a "monitor: restore: …" panic rather than an
// index panic or a silently wrong window.
func TestRestoreRefusesImpossibleStates(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   State
		want string
	}{
		{"more timestamps than counts", State{PointTS: []stream.Time{1, 2}, PointN: []int64{1}}, "monitor: restore: 2 point timestamps and 1 point counts"},
		{"more counts than timestamps", State{PointTS: []stream.Time{1}, PointN: []int64{1, 1}}, "monitor: restore: 1 point timestamps and 2 point counts"},
		{"a point of count zero", State{PointTS: []stream.Time{1, 2}, PointN: []int64{1, 0}}, "monitor: restore: point 1 has count 0"},
		{"more estimates than the ring holds", State{True: []float64{1, 2, 3, 4}}, "monitor: restore: 4 true-size estimates into a ring of 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), tc.want) {
					t.Fatalf("recovered %v, want a panic starting %q", r, tc.want)
				}
			}()
			New(100, 3).Restore(tc.st)
		})
	}
}

// TestRestoreKeepsRunningSum: a monitor restored mid-ring from a gob
// round trip of its state answers TrueEstimate bit for bit as the
// uninterrupted monitor does after every later push, in the filling and in
// the saturated ring; a state captured before the sum was carried re-sums
// its estimates.
func TestRestoreKeepsRunningSum(t *testing.T) {
	const intervals = 59
	rng := rand.New(rand.NewSource(13))
	est := make([]float64, 400)
	for i := range est {
		est[i] = rng.Float64() * 1e4
	}
	for _, cut := range []int{intervals / 2, intervals + 7, 3 * intervals} {
		whole, part := New(stream.Minute, intervals), New(stream.Minute, intervals)
		for _, v := range est[:cut] {
			whole.PushTrueEstimate(v)
			part.PushTrueEstimate(v)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(part.State()); err != nil {
			t.Fatal(err)
		}
		var st State
		if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resumed := New(stream.Minute, intervals)
		resumed.Restore(st)
		for i, v := range est[cut:] {
			if got, want := resumed.TrueEstimate(), whole.TrueEstimate(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cut %d, push %d: TrueEstimate %v, uninterrupted %v", cut, i, got, want)
			}
			whole.PushTrueEstimate(v)
			resumed.PushTrueEstimate(v)
		}
	}

	old, pre := New(100, 3), []float64{0.1, 0.2, 0.3}
	old.Restore(State{True: pre})
	if got, want := old.TrueEstimate(), pre[0]+pre[1]+pre[2]; got != want {
		t.Fatalf("state without a carried sum: TrueEstimate %v, want the estimates re-summed, %v", got, want)
	}
}

// live returns the number of live points, the open one included.
func (m *Monitor) live() int {
	n := m.points.Len()
	if m.open.n > 0 {
		n++
	}
	return n
}

// maxBytesPerPoint bounds what the point FIFO retains, blocks included, per
// point of its live high-water mark: a point is encoded in 3 or 4 bytes on
// these feeds, and a 16-byte point must not come back unnoticed.
const maxBytesPerPoint = 6

// feedX3 drives m the way the operator does at rate× x3-model's result rate
// (≈ 215 result-producing in-order arrivals per second): at every millisecond
// tick a Poisson-ish number of AddResults calls at that tick's timestamp, an
// Advance every L = 1 s. check runs after every Advance with the number of
// distinct timestamps the window holds, counted independently of m, and the
// live points just before the Advance, the most the window held since the
// last one.
func feedX3(m *Monitor, rng *rand.Rand, rate float64, horizon, span stream.Time, check func(now stream.Time, distinct, before int)) {
	perTick := rate * 215 / 1000
	var ticks []stream.Time // ticks that carried a result, oldest first
	head := 0
	for now := stream.Time(1); now <= horizon; now++ {
		calls := int(perTick)
		if rng.Float64() < perTick-float64(calls) {
			calls++
		}
		for c := 0; c < calls; c++ {
			m.AddResults(now, 1+int64(rng.Intn(40)))
		}
		if calls > 0 {
			ticks = append(ticks, now)
		}
		if now%stream.Second == 0 {
			before := m.live()
			m.Advance(now)
			for head < len(ticks) && ticks[head] < now-span {
				head++
			}
			check(now, len(ticks)-head, before)
		}
	}
}

// TestMonitorBoundedByTicks (ROADMAP 8(e)): at 20× x3's result rate over ten
// periods, the window holds one point per distinct timestamp — never more
// than the distinct timestamps in the window plus one — and the FIFO retains
// at most maxBytesPerPoint bytes per point of its live high-water mark.
func TestMonitorBoundedByTicks(t *testing.T) {
	const P, L = stream.Minute, stream.Second
	m := New(P-L, int((P-L)/L))
	peak := 0
	feedX3(m, rand.New(rand.NewSource(3)), 20, 10*P, P-L, func(now stream.Time, distinct, before int) {
		if live := m.live(); live > distinct+1 {
			t.Fatalf("now %d: %d live points for %d distinct timestamps in the window", now, live, distinct)
		}
		peak = max(peak, before)
		if b := m.points.Blocks() * fifo.BlockBytes; b > maxBytesPerPoint*peak {
			t.Fatalf("now %d: %d bytes retained for a live high-water mark of %d points", now, b, peak)
		}
	})
	if peak < int(P-L)/2 {
		t.Fatalf("live high-water mark %d: the feed never filled the window, the bound is not exercised", peak)
	}
	if peak > int(P)+1 {
		t.Fatalf("live high-water mark %d points, more than the %d ticks of P", peak, P+1)
	}
}

// TestRetainedBytesPerPoint: at x3's own result rate, where a window holds
// ≈ 13 k points of 3 or 4 bytes, the point FIFO retains at most
// maxBytesPerPoint bytes per point of its live high-water mark, blocks
// included.
func TestRetainedBytesPerPoint(t *testing.T) {
	const P, L = stream.Minute, stream.Second
	m := New(P-L, int((P-L)/L))
	peak := 0
	feedX3(m, rand.New(rand.NewSource(5)), 1, 5*P, P-L, func(now stream.Time, _, before int) {
		peak = max(peak, before)
	})
	b := m.points.Blocks() * fifo.BlockBytes
	t.Logf("%d bytes retained for a live high-water mark of %d points: %.2f bytes per point", b, peak, float64(b)/float64(peak))
	if b > maxBytesPerPoint*peak {
		t.Fatalf("%d bytes retained for a live high-water mark of %d points, over %d bytes per point", b, peak, maxBytesPerPoint)
	}
}

// TestMonitorSteadyStateZeroAllocs: once the point FIFO has reached its
// high-water mark, AddResults and Advance — merge, push, prune, block
// recycling — allocate nothing.
func TestMonitorSteadyStateZeroAllocs(t *testing.T) {
	const span = 10 * stream.Second
	m := New(span, 10)
	now := stream.Time(0)
	step := func() {
		for i := 0; i < 1000; i++ {
			now++
			m.AddResults(now, 3)
			m.AddResults(now, 2) // merges
			if now%100 == 0 {
				m.Advance(now)
			}
		}
	}
	for now < 3*span {
		step()
	}
	if m.points.Blocks() < 2 {
		t.Fatal("the window never outgrew one block; the test would not see recycling")
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("steady-state AddResults + Advance allocated %v times per 1000 ticks", allocs)
	}
}

// TestRestoreRoundTripGob: at every decision of an x3-rate feed, a monitor
// restored from the gob bytes of its own state captures the same bytes
// again, and goes on to answer Produced and TrueEstimate bit for bit as
// the uninterrupted monitor does. The point FIFO's derived state (block
// layout, skip marks) must not enter a snapshot.
func TestRestoreRoundTripGob(t *testing.T) {
	const P, L = stream.Minute, stream.Second
	encode := func(st State) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rng := rand.New(rand.NewSource(11))
	whole, resumed := New(P-L, int((P-L)/L)), New(P-L, int((P-L)/L))
	for now := stream.Time(1); now <= 3*P; now++ {
		for c := 0; rng.Float64() < 0.2 && c < 4; c++ {
			n := 1 + int64(rng.Intn(40))
			whole.AddResults(now, n)
			resumed.AddResults(now, n)
		}
		if now%L != 0 {
			continue
		}
		est := rng.Float64() * 1e4
		for _, m := range []*Monitor{whole, resumed} {
			m.Advance(now)
			m.PushTrueEstimate(est)
		}
		captured := encode(resumed.State())
		var st State
		if err := gob.NewDecoder(bytes.NewReader(captured)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resumed = New(P-L, int((P-L)/L))
		resumed.Restore(st)
		if again := encode(resumed.State()); !bytes.Equal(again, captured) {
			t.Fatalf("now %d: capture → restore → capture changed the gob bytes", now)
		}
		if resumed.Produced() != whole.Produced() || math.Float64bits(resumed.TrueEstimate()) != math.Float64bits(whole.TrueEstimate()) {
			t.Fatalf("now %d: Produced/TrueEstimate %d/%v, uninterrupted %d/%v", now, resumed.Produced(), resumed.TrueEstimate(), whole.Produced(), whole.TrueEstimate())
		}
	}
	if typ, want := reflect.TypeOf(State{}), []string{"PointTS", "PointN", "True", "TrueSum", "HasTrueSum"}; typ.NumField() != len(want) {
		t.Fatalf("%v has %d fields, want %v", typ, typ.NumField(), want)
	} else {
		for i, name := range want {
			if typ.Field(i).Name != name {
				t.Fatalf("%v field %d is %s, want %s", typ, i, typ.Field(i).Name, name)
			}
		}
	}
}
