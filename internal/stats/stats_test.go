package stats

import (
	"math"
	"testing"

	"repro/internal/stream"
)

func tup(src int, ts stream.Time) *stream.Tuple {
	return &stream.Tuple{TS: ts, Src: src}
}

func TestLocalTAndGlobalT(t *testing.T) {
	m := NewManager(2, 10)
	m.Observe(tup(0, 100))
	m.Observe(tup(1, 50))
	m.Observe(tup(0, 90)) // late, localT unchanged
	if m.LocalT(0) != 100 || m.LocalT(1) != 50 {
		t.Fatalf("localT = %d/%d", m.LocalT(0), m.LocalT(1))
	}
	if m.GlobalT() != 100 {
		t.Fatalf("GlobalT = %d", m.GlobalT())
	}
}

func TestDelayHistogram(t *testing.T) {
	m := NewManager(1, 10)
	m.Observe(tup(0, 100)) // delay 0
	m.Observe(tup(0, 95))  // delay 5 → bucket 1
	m.Observe(tup(0, 100)) // delay 0
	h := m.Hist(0)
	if h.Total() != 3 {
		t.Fatalf("hist total = %d", h.Total())
	}
	if c := h.Counts(); len(c) != 2 || c[0] != 2 || c[1] != 1 {
		t.Fatalf("counts = %v, want [2 1]", c)
	}
}

func TestMaxDelays(t *testing.T) {
	m := NewManager(2, 10)
	m.Observe(tup(0, 1000))
	m.Observe(tup(0, 800)) // delay 200
	m.Observe(tup(1, 500))
	m.Observe(tup(1, 495)) // delay 5
	if m.MaxDelayAllTime() != 200 {
		t.Fatalf("MaxDelayAllTime = %d", m.MaxDelayAllTime())
	}
	if m.MaxDelayRecent() != 200 {
		t.Fatalf("MaxDelayRecent = %d", m.MaxDelayRecent())
	}
}

func TestFixedHistoryEviction(t *testing.T) {
	m := NewManager(1, 10, WithFixedHistory(3))
	m.Observe(tup(0, 100))
	m.Observe(tup(0, 10)) // delay 90
	m.Observe(tup(0, 100))
	m.Observe(tup(0, 100))
	m.Observe(tup(0, 100)) // evicts the delay-90 entry
	if m.HistoryLen(0) != 3 {
		t.Fatalf("history len = %d, want 3", m.HistoryLen(0))
	}
	if m.MaxDelayRecent() != 0 {
		t.Fatalf("old delay must age out of recent history, MaxDelayRecent=%d", m.MaxDelayRecent())
	}
	// All-time max persists for Max-K-slack.
	if m.MaxDelayAllTime() != 90 {
		t.Fatalf("MaxDelayAllTime = %d", m.MaxDelayAllTime())
	}
}

func TestRate(t *testing.T) {
	m := NewManager(1, 10)
	// 11 tuples spanning 100 ms → rate (11−1)/100 = 0.1 tuples/ms.
	for i := 0; i <= 10; i++ {
		m.Observe(tup(0, stream.Time(i*10)))
	}
	if r := m.Rate(0); math.Abs(r-0.1) > 1e-9 {
		t.Fatalf("rate = %v, want 0.1", r)
	}
}

func TestRateDegenerate(t *testing.T) {
	m := NewManager(1, 10)
	if m.Rate(0) != 0 {
		t.Fatal("rate of empty stream must be 0")
	}
	m.Observe(tup(0, 5))
	if m.Rate(0) != 0 {
		t.Fatal("rate needs at least two arrivals and positive span")
	}
}

// TestKSync follows Proposition 1: K^sync_i equals the average skew of
// stream i against the slowest stream.
func TestKSync(t *testing.T) {
	m := NewManager(2, 10, WithFixedHistory(100))
	// Stream 0 leads stream 1 by 50 time units consistently.
	for i := 0; i < 50; i++ {
		m.Observe(tup(0, stream.Time(100+i)))
		m.Observe(tup(1, stream.Time(50+i)))
	}
	k0, k1 := m.KSync(0), m.KSync(1)
	if k1 != 0 {
		t.Fatalf("slowest stream must have KSync 0, got %d", k1)
	}
	if k0 < 40 || k0 > 60 {
		t.Fatalf("leading stream KSync = %d, want ≈50", k0)
	}
}

func TestKSyncSingleStreamSeen(t *testing.T) {
	m := NewManager(3, 10)
	m.Observe(tup(0, 100))
	// Until every stream has been seen, skews are recorded as 0.
	if m.KSync(0) != 0 {
		t.Fatalf("KSync before all streams seen = %d", m.KSync(0))
	}
}

func TestADWINHistoryShrinksOnDelayChange(t *testing.T) {
	m := NewManager(1, 10)
	ts := stream.Time(0)
	// Long stable phase with zero delays.
	for i := 0; i < 3000; i++ {
		ts += 10
		m.Observe(tup(0, ts))
	}
	long := m.HistoryLen(0)
	// Disorder burst: every second tuple delayed by 500.
	for i := 0; i < 1500; i++ {
		ts += 10
		m.Observe(tup(0, ts))
		m.Observe(tup(0, ts-500))
	}
	if m.HistoryLen(0) >= long+3000 {
		t.Fatalf("ADWIN history did not adapt: %d → %d", long, m.HistoryLen(0))
	}
	if h := m.Hist(0); float64(h.Counts()[0]) > 0.9*float64(h.Total()) {
		t.Fatalf("recent histogram should reflect the burst, %d of %d at delay 0", h.Counts()[0], h.Total())
	}
}

func TestGlobalTNoStreams(t *testing.T) {
	m := NewManager(2, 10)
	if m.GlobalT() != 0 {
		t.Fatal("GlobalT before any arrival must be 0")
	}
}
