package window

import (
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// benchTuples builds a mostly-ordered feed with the given out-of-order
// fraction (percent) and delay bound.
func benchTuples(n int, oooPct int, delay stream.Time) []*stream.Tuple {
	rng := rand.New(rand.NewSource(1))
	out := make([]*stream.Tuple, n)
	for i := range out {
		ts := stream.Time(i * 10)
		if oooPct > 0 && rng.Intn(100) < oooPct {
			d := stream.Time(rng.Int63n(int64(delay)))
			if d < ts {
				ts -= d
			}
		}
		out[i] = &stream.Tuple{TS: ts, Seq: uint64(i), Attrs: []float64{float64(i % 64)}}
	}
	return out
}

// BenchmarkInsertExpireSlide is the operator's steady-state pattern: expire
// to the sliding bound, then insert, on fully in-order input.
func BenchmarkInsertExpireSlide(b *testing.B) {
	const size = 10 * stream.Second
	tuples := benchTuples(1<<16, 0, 0)
	w := New(size, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := tuples[i&(1<<16-1)]
		if i&(1<<16-1) == 0 && i > 0 {
			b.StopTimer()
			w.Reset()
			b.StartTimer()
		}
		w.Expire(t.TS - size)
		w.Insert(t)
	}
}

// BenchmarkInsertOutOfOrder measures the binary-search fallback: 20% of
// tuples arrive up to 5 s late into a 10 s window.
func BenchmarkInsertOutOfOrder(b *testing.B) {
	const size = 10 * stream.Second
	tuples := benchTuples(1<<16, 20, 5*stream.Second)
	w := New(size, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := tuples[i&(1<<16-1)]
		if i&(1<<16-1) == 0 && i > 0 {
			b.StopTimer()
			w.Reset()
			b.StartTimer()
		}
		w.Expire(t.TS - size)
		w.Insert(t)
	}
}

// BenchmarkMatch measures a warm indexed probe.
func BenchmarkMatch(b *testing.B) {
	w := New(stream.Minute, 0)
	for _, t := range benchTuples(4096, 0, 0) {
		w.Insert(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n += len(match(w, 0, float64(i%64)))
	}
	_ = n
}
