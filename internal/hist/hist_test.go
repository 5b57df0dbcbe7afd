package hist

import (
	"math/rand"
	"testing"

	"repro/internal/stream"
)

func TestBucketMapping(t *testing.T) {
	cases := []struct {
		delay stream.Time
		want  int
	}{
		{0, 0}, {1, 1}, {10, 1}, {11, 2}, {20, 2}, {21, 3}, {-5, 0},
	}
	for _, c := range cases {
		if got := Bucket(c.delay, 10); got != c.want {
			t.Fatalf("Bucket(%d) = %d, want %d", c.delay, got, c.want)
		}
	}
}

// TestEmptyHistogramPrior: an empty histogram has no counts and no total —
// what the model reads as "all delays are zero".
func TestEmptyHistogramPrior(t *testing.T) {
	h := New(10)
	if h.Total() != 0 || len(h.Counts()) != 0 {
		t.Fatal("empty histogram must have no counts")
	}
	if h.MaxDelay() != 0 {
		t.Fatal("empty MaxDelay must be 0")
	}
}

func TestAddRemoveRoundTrip(t *testing.T) {
	h := New(10)
	h.Add(0)
	h.Add(15)
	h.Add(15)
	h.Add(100)
	if h.Total() != 4 {
		t.Fatalf("Total = %d", h.Total())
	}
	if c := h.Counts(); c[0] != 1 || c[2] != 2 || c[10] != 1 {
		t.Fatalf("counts = %v", c)
	}
	if h.MaxDelay() != 100 {
		t.Fatalf("MaxDelay = %d", h.MaxDelay())
	}
	h.Remove(100)
	if h.MaxDelay() != 20 {
		t.Fatalf("MaxDelay after remove = %d", h.MaxDelay())
	}
	h.Remove(100) // double remove is a no-op
	if h.Total() != 3 {
		t.Fatalf("Total = %d", h.Total())
	}
}

// TestCDFMonotone: the cumulative counts the model derives every F_D(d) from
// are non-decreasing and reach the total at the top bucket.
func TestCDFMonotone(t *testing.T) {
	h := New(5)
	for _, d := range []stream.Time{0, 3, 7, 12, 12, 40} {
		h.Add(d)
	}
	var cum int64
	for d, c := range h.Counts() {
		if c < 0 {
			t.Fatalf("negative count at %d", d)
		}
		cum += c
	}
	if cum != h.Total() || len(h.Counts()) != 9 {
		t.Fatalf("counts sum to %d of %d, %d buckets", cum, h.Total(), len(h.Counts()))
	}
}

// TestRemoveTrimsTrailingBuckets: against a naive bucket array under random
// Add/Remove, the counts agree and never carry a trailing empty bucket, so
// MaxDelay needs no scan.
func TestRemoveTrimsTrailingBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := New(10)
	var naive [64]int64
	var live []stream.Time
	for i := 0; i < 5000; i++ {
		if i == 2500 { // regrowing into the capacity a Reset leaves must find zeros
			h.Reset()
			naive, live = [64]int64{}, live[:0]
		}
		if len(live) == 0 || rng.Intn(3) > 0 {
			d := stream.Time(rng.Intn(600))
			if rng.Intn(8) > 0 {
				d = stream.Time(rng.Intn(40))
			}
			h.Add(d)
			naive[Bucket(d, 10)]++
			live = append(live, d)
		} else {
			j := rng.Intn(len(live))
			h.Remove(live[j])
			naive[Bucket(live[j], 10)]--
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		top := -1
		for b, c := range naive {
			if c > 0 {
				top = b
			}
		}
		c := h.Counts()
		if len(c) != top+1 || h.MaxDelay() != stream.Time(max(top, 0))*10 || h.Total() != int64(len(live)) {
			t.Fatalf("step %d: len %d, MaxDelay %d, want top %d; total %d of %d", i, len(c), h.MaxDelay(), top, h.Total(), len(live))
		}
		for b := range c {
			if c[b] != naive[b] {
				t.Fatalf("step %d: bucket %d = %d, want %d", i, b, c[b], naive[b])
			}
		}
	}
}

// TestHugeDelayIsClamped: one stale timestamp (an epoch-millisecond stream
// with a single TS = 0) must not size the histogram by its delay.
func TestHugeDelayIsClamped(t *testing.T) {
	h := New(10)
	h.Add(0)
	h.Add(1 << 50)
	if n := len(h.Counts()); n > MaxBuckets {
		t.Fatalf("len(counts) = %d exceeds MaxBuckets", n)
	}
	if got, want := h.MaxDelay(), stream.Time(MaxBuckets-1)*10; got != want {
		t.Fatalf("MaxDelay = %d, want the clamp %d", got, want)
	}
	// Remove clamps the same way, so the straggler ages out cleanly.
	h.Remove(1 << 50)
	if h.Total() != 1 || len(h.Counts()) != 1 {
		t.Fatalf("after Remove: total %d, %d buckets", h.Total(), len(h.Counts()))
	}
	if got := Bucket(1<<62+5, 10); got != MaxBuckets-1 {
		t.Fatalf("Bucket near MaxInt64 = %d", got)
	}
}
