package syncer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/stream"
)

func tup(src int, ts stream.Time, seq uint64) *stream.Tuple {
	return &stream.Tuple{TS: ts, Seq: seq, Src: src}
}

func TestHoldsUntilEveryStreamPresent(t *testing.T) {
	var out []*stream.Tuple
	s := New(2, func(e *stream.Tuple) { out = append(out, e) })
	s.Push(tup(0, 5, 0))
	s.Push(tup(0, 6, 1))
	if len(out) != 0 {
		t.Fatal("must hold until every stream has a buffered tuple")
	}
	s.Push(tup(1, 7, 2))
	// Buffer now has S0:{5,6}, S1:{7}. Release loop: Tsync=5 emit 5;
	// then S1 still has 7, S0 has 6 → Tsync=6 emit 6; then S0 empty → stop.
	if len(out) != 2 || out[0].TS != 5 || out[1].TS != 6 {
		t.Fatalf("out = %v", out)
	}
	if s.TSync() != 6 {
		t.Fatalf("TSync = %d, want 6", s.TSync())
	}
}

func TestImmediateForwardOfLateTuple(t *testing.T) {
	var out []*stream.Tuple
	s := New(2, func(e *stream.Tuple) { out = append(out, e) })
	s.Push(tup(0, 5, 0))
	s.Push(tup(1, 9, 1)) // releases ts 5, Tsync=5
	out = out[:0]
	late := tup(0, 3, 2) // ts ≤ Tsync → bypass
	s.Push(late)
	if len(out) != 1 || out[0] != late {
		t.Fatal("late tuple must be forwarded immediately")
	}
	if s.Immediate() != 1 {
		t.Fatalf("Immediate = %d", s.Immediate())
	}
}

func TestEqualTimestampsReleaseTogether(t *testing.T) {
	var out []*stream.Tuple
	s := New(2, func(e *stream.Tuple) { out = append(out, e) })
	s.Push(tup(0, 5, 0))
	s.Push(tup(1, 5, 1))
	if len(out) != 2 {
		t.Fatalf("both ts-5 tuples must release, got %d", len(out))
	}
}

func TestCloseUnblocksRemainingStreams(t *testing.T) {
	var out []*stream.Tuple
	s := New(3, func(e *stream.Tuple) { out = append(out, e) })
	s.Push(tup(0, 1, 0))
	s.Push(tup(1, 2, 1))
	if len(out) != 0 {
		t.Fatal("stream 2 never produced; must hold")
	}
	s.Close(2)
	// With stream 2 gone, streams 0 and 1 both hold a tuple, so the minimum
	// (ts 1) releases; ts 2 then waits for more stream-0 input.
	if len(out) != 1 || out[0].TS != 1 {
		t.Fatalf("closing the silent stream must release ts 1, got %v", out)
	}
	s.Close(0)
	if len(out) != 2 {
		t.Fatalf("closing stream 0 must release ts 2, got %d", len(out))
	}
	s.Close(1)
	if s.Len() != 0 {
		t.Fatal("closing all streams must drain the buffer")
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := New(2, func(*stream.Tuple) {})
	s.Close(0)
	s.Close(0) // second close must not underflow nOpen
	s.Close(1)
	s.Close(-1) // out of range ignored
	s.Close(5)
}

// TestLeadingStreamImplicitBuffer verifies the K^sync observation behind the
// Same-K policy (Sec. III-B): with K=0 the Synchronizer itself buffers the
// leading stream up to the skew against the slowest stream.
func TestLeadingStreamImplicitBuffer(t *testing.T) {
	var out []*stream.Tuple
	s := New(2, func(e *stream.Tuple) { out = append(out, e) })
	// S0 leads by a large skew.
	for i := 0; i < 5; i++ {
		s.Push(tup(0, stream.Time(100+i), uint64(i)))
	}
	if s.Len() != 5 {
		t.Fatal("leading tuples must sit in the synchronization buffer")
	}
	s.Push(tup(1, 50, 10))
	// min ts = 50 releases only the lagging tuple.
	if len(out) != 1 || out[0].TS != 50 {
		t.Fatalf("out = %v", out)
	}
}

// Property: with per-stream sorted inputs that are eventually closed, the
// synchronizer output is globally sorted and conserves tuples.
func TestSortedInputsMergeSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		var out []*stream.Tuple
		s := New(m, func(e *stream.Tuple) { out = append(out, e) })
		var seq uint64
		cur := make([]stream.Time, m)
		total := 0
		for i := 0; i < 200; i++ {
			src := rng.Intn(m)
			cur[src] += stream.Time(rng.Intn(5))
			s.Push(tup(src, cur[src], seq))
			seq++
			total++
		}
		for i := 0; i < m; i++ {
			s.Close(i)
		}
		if len(out) != total {
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

// Property: conservation also holds for disordered inputs (late tuples take
// the bypass path but are never dropped).
func TestConservationDisordered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2
		count := 0
		s := New(m, func(*stream.Tuple) { count++ })
		ts := make([]stream.Time, m)
		n := 300
		for i := 0; i < n; i++ {
			src := rng.Intn(m)
			ts[src] += stream.Time(rng.Intn(4))
			d := stream.Time(rng.Intn(25))
			v := ts[src] - d
			if v < 0 {
				v = 0
			}
			s.Push(tup(src, v, uint64(i)))
		}
		for i := 0; i < m; i++ {
			s.Close(i)
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStarvedCountMatchesRescan: the count of open streams with nothing
// buffered — what gates the release loop — equals a rescan of all streams
// after every Push, Close and State→Restore, pushes to closed streams
// included.
func TestStarvedCountMatchesRescan(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(4)
		emit := func(*stream.Tuple) {}
		s := New(m, emit)
		check := func(step int, op string) {
			t.Helper()
			want := 0
			for i := range s.lanes {
				if s.open[i] && s.lanes[i].Len() == 0 {
					want++
				}
			}
			if s.starved != want {
				t.Fatalf("seed %d step %d (%s): starved = %d, rescan %d", seed, step, op, s.starved, want)
			}
		}
		ts := stream.Time(0)
		for i := 0; i < 400; i++ {
			op := "push"
			switch r := rng.Intn(40); {
			case r == 0:
				op = "close"
				s.Close(rng.Intn(m))
			case r == 1:
				op = "restore"
				tt := fault.NewTupleTable()
				st := s.State(tt)
				s = New(m, emit)
				s.Restore(st, fault.NewTupleArena(tt.Recs))
			default:
				ts += stream.Time(rng.Intn(3))
				s.Push(tup(rng.Intn(m), ts-stream.Time(rng.Intn(6)), uint64(i)))
			}
			check(i, op)
		}
	}
}

// TestRestoreRefusesImpossibleStates: a state no Synchronizer of this many
// streams can have captured is refused with a "syncer: restore: …" panic
// rather than an index panic.
func TestRestoreRefusesImpossibleStates(t *testing.T) {
	tt := fault.NewTupleTable()
	tt.ID(tup(1, 5, 0))
	tt.ID(tup(7, 6, 1))
	for _, tc := range []struct {
		name string
		st   State
		want string
	}{
		{"fewer open flags than streams", State{Open: []bool{true, true}}, "syncer: restore: 2 open flags into a synchronizer of 3 lanes"},
		{"more open flags than streams", State{Open: []bool{true, true, true, true}, Buffered: []int32{0}}, "syncer: restore: 4 open flags into a synchronizer of 3 lanes"},
		{"a tuple of a stream past m", State{Open: []bool{true, true, true}, Buffered: []int32{0, 1}}, "syncer: restore: a buffered value on lane 7 of 3"},
		{"an id outside the tuple table", State{Open: []bool{true, true, true}, Buffered: []int32{0, 2}}, "syncer: restore: buffered tuple id 2 outside a table of 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), tc.want) {
					t.Fatalf("recovered %v, want a panic starting %q", r, tc.want)
				}
			}()
			New(3, func(*stream.Tuple) {}).Restore(tc.st, fault.NewTupleArena(tt.Recs))
		})
	}
}
