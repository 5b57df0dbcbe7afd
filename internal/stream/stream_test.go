package stream

import (
	"math"
	"testing"
	"testing/quick"
)

func tup(src int, ts Time, seq uint64) *Tuple {
	return &Tuple{TS: ts, Seq: seq, Src: src}
}

func TestTimeString(t *testing.T) {
	for _, c := range []struct {
		t    Time
		want string
	}{
		{-1, "-0.001s"},
		{-1500, "-1.500s"},
		{-2 * Minute, "-120.000s"},
		{0, "0.000s"},
		{1500 * Millisecond, "1.500s"},
		{2 * Minute, "120.000s"},
		{math.MinInt64, "-9223372036854775.808s"},
		{math.MaxInt64, "9223372036854775.807s"},
	} {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTupleAttr(t *testing.T) {
	tu := &Tuple{Attrs: []float64{1.5, 2.5}}
	if tu.Attr(0) != 1.5 || tu.Attr(1) != 2.5 {
		t.Fatal("Attr returned wrong values")
	}
	if tu.Attr(2) != 0 || tu.Attr(-1) != 0 {
		t.Fatal("out-of-range Attr should be 0")
	}
}

func TestNewResultTimestamp(t *testing.T) {
	r := NewResult([]*Tuple{tup(0, 5, 0), tup(1, 9, 1), tup(2, 3, 2)})
	if r.TS != 9 {
		t.Fatalf("result ts = %d, want max deriving ts 9", r.TS)
	}
}

func TestBatchSortByTS(t *testing.T) {
	b := Batch{tup(0, 3, 0), tup(0, 1, 1), tup(0, 2, 2)}
	b.SortByTS()
	if b[0].TS != 1 || b[1].TS != 2 || b[2].TS != 3 {
		t.Fatalf("not sorted: %v", b)
	}
}

func TestBatchSortedByTSStable(t *testing.T) {
	b := Batch{tup(0, 2, 0), tup(1, 2, 1), tup(0, 1, 2)}
	s := b.SortedByTS()
	if s[0].TS != 1 {
		t.Fatal("min ts must come first")
	}
	if s[1].Seq != 0 || s[2].Seq != 1 {
		t.Fatal("ties must be broken by Seq")
	}
	// Original batch unchanged.
	if b[0].TS != 2 || b[2].TS != 1 {
		t.Fatal("SortedByTS must not mutate the receiver")
	}
}

func TestBatchDisordered(t *testing.T) {
	inOrder := Batch{tup(0, 1, 0), tup(1, 5, 1), tup(0, 2, 2)}
	if inOrder.Disordered() {
		t.Fatal("per-stream ordered batch misreported as disordered")
	}
	ooo := Batch{tup(0, 5, 0), tup(0, 2, 1)}
	if !ooo.Disordered() {
		t.Fatal("out-of-order batch not detected")
	}
}

func TestBatchMaxDelay(t *testing.T) {
	// Stream 0: ts 10, then 4 → delay 6. Stream 1: ts 3, 7 → delay 0.
	b := Batch{tup(0, 10, 0), tup(1, 3, 1), tup(0, 4, 2), tup(1, 7, 3)}
	max, per := b.MaxDelay()
	if max != 6 {
		t.Fatalf("max delay = %d, want 6", max)
	}
	if per[0] != 6 || per[1] != 0 {
		t.Fatalf("per-stream delays = %v", per)
	}
}

func TestInterleaveBySeq(t *testing.T) {
	s0 := Batch{tup(0, 1, 0), tup(0, 3, 3)}
	s1 := Batch{tup(1, 2, 1), tup(1, 4, 2)}
	all := Interleave(s0, s1)
	for i := 1; i < len(all); i++ {
		if all[i].Seq < all[i-1].Seq {
			t.Fatalf("interleave not ordered by Seq at %d", i)
		}
	}
	if len(all) != 4 {
		t.Fatalf("len = %d", len(all))
	}
}

func TestBatchClone(t *testing.T) {
	b := Batch{{TS: 1, Attrs: []float64{7}}}
	c := b.Clone()
	c[0].TS = 99
	c[0].Attrs[0] = 42
	if b[0].TS != 1 || b[0].Attrs[0] != 7 {
		t.Fatal("clone shares state with original")
	}
}

func TestBatchMaxTS(t *testing.T) {
	if (Batch{}).MaxTS() != 0 {
		t.Fatal("empty batch MaxTS should be 0")
	}
	b := Batch{tup(0, 5, 0), tup(0, 11, 1), tup(0, 2, 2)}
	if b.MaxTS() != 11 {
		t.Fatalf("MaxTS = %d", b.MaxTS())
	}
}

// The per-stream state of Disordered and MaxDelay lives in small slices
// indexed by Src: for the usual m ≤ 8 Disordered must not allocate at all,
// and MaxDelay only for its returned per-stream slice.
func TestDisorderScanAllocations(t *testing.T) {
	b := make(Batch, 512)
	for i := range b {
		b[i] = tup(i%4, Time(100+i-3*(i%7)), uint64(i))
	}
	if got := testing.AllocsPerRun(100, func() { b.Disordered() }); got != 0 {
		t.Fatalf("Disordered allocated %v times per call", got)
	}
	if got := testing.AllocsPerRun(100, func() { b.MaxDelay() }); got > 2 {
		t.Fatalf("MaxDelay allocated %v times per call", got)
	}
}

// Property: delays computed by MaxDelay are always non-negative and zero for
// a per-stream sorted batch.
func TestMaxDelayProperty(t *testing.T) {
	f := func(raw []int16) bool {
		b := make(Batch, len(raw))
		for i, v := range raw {
			b[i] = tup(0, Time(v), uint64(i))
		}
		max, _ := b.MaxDelay()
		if max < 0 {
			return false
		}
		s := b.SortedByTS()
		smax, _ := s.MaxDelay()
		return smax == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
