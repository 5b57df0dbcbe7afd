package join

import (
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// benchFeed builds an in-order m-stream equi feed.
func benchFeed(m, n, domain int) []*stream.Tuple {
	rng := rand.New(rand.NewSource(1))
	out := make([]*stream.Tuple, 0, m*n)
	var seq uint64
	ts := stream.Time(0)
	for i := 0; i < n; i++ {
		ts += 10
		for src := 0; src < m; src++ {
			out = append(out, &stream.Tuple{TS: ts, Seq: seq, Src: src,
				Attrs: []float64{float64(rng.Intn(domain)), float64(rng.Intn(domain))}})
			seq++
		}
	}
	return out
}

// cycle replays the feed endlessly, shifting timestamps forward one epoch
// per pass so the operator keeps seeing in-order input. Tuples are safely
// reused: the window span is far smaller than one epoch, so a tuple has long
// been expired before its pointer comes around again.
func cycle(feed []*stream.Tuple, orig []stream.Time, span stream.Time, i int) *stream.Tuple {
	e := feed[i%len(feed)]
	e.TS = orig[i%len(feed)] + span*stream.Time(i/len(feed))
	return e
}

func origTS(feed []*stream.Tuple) ([]stream.Time, stream.Time) {
	orig := make([]stream.Time, len(feed))
	var max stream.Time
	for i, e := range feed {
		orig[i] = e.TS
		if e.TS > max {
			max = e.TS
		}
	}
	return orig, max + 10
}

// BenchmarkProcessEquiChain measures the steady-state counting-only probe
// path (expire + probe + insert) of a 3-way equi chain. After warm-up it
// must run allocation-free.
func BenchmarkProcessEquiChain(b *testing.B) {
	const n = 1 << 15
	feed := benchFeed(3, n/3+1, 50)
	orig, span := origTS(feed)
	op := New(EquiChain(3, 0), []stream.Time{stream.Second, stream.Second, stream.Second})
	// Warm up windows and index buckets to steady state.
	for _, e := range feed[:n/2] {
		op.Process(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Process(cycle(feed, orig, span, i+n/2))
	}
}

// BenchmarkProcessStar measures the multi-lookup filter path: a 4-way star
// join where later probe steps carry a second lookup that filters through
// the per-level scratch buffer.
func BenchmarkProcessStar(b *testing.B) {
	const n = 1 << 15
	feed := benchFeed(4, n/4+1, 20)
	orig, span := origTS(feed)
	cond := Star(4, []int{0, 0, 1}, []int{0, 0, 1})
	op := New(cond, []stream.Time{500, 500, 500, 500})
	for _, e := range feed[:n/2] {
		op.Process(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Process(cycle(feed, orig, span, i+n/2))
	}
}

// BenchmarkMultiStar is BenchmarkProcessStar through a Multi carrying eight
// identical counting queries: one residual class, so the class takes the
// same fused tail count as the standalone operator and credits it eight
// times.
func BenchmarkMultiStar(b *testing.B) {
	const n = 1 << 15
	feed := benchFeed(4, n/4+1, 20)
	orig, span := origTS(feed)
	mo := NewMulti([]stream.Time{500, 500, 500, 500})
	for q := 0; q < 8; q++ {
		cond := Star(4, []int{0, 0, 1}, []int{0, 0, 1})
		mo.Add(cond, ResidualSig(cond, ""), nil, nil, nil)
	}
	for _, e := range feed[:n/2] {
		mo.Process(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mo.Process(cycle(feed, orig, span, i+n/2))
	}
}

var stepSink int

// BenchmarkStepFilter measures the circle residual over one probe's
// candidates as the soccer query sees them — eleven tuples of the ±5 m box,
// eight inside the circle — swept by the step program, and checked one
// candidate at a time by Eval as Multi and internal/dist still do.
func BenchmarkStepFilter(b *testing.B) {
	dx := Sub(Attr(0, 1), Attr(1, 1))
	dy := Sub(Attr(0, 2), Attr(1, 2))
	circle := Lt(Add(Mul(dx, dx), Mul(dy, dy)), ConstOf(25))
	at := [][2]float64{{0, 0}, {1, 2}, {-3, 3}, {4.9, 4.9}, {2, -4}, {-4.5, 0.5}, {4, 4}, {0, 4.5}, {-3.5, -3}, {-4, -4}, {3, 1}}
	cands := make([]*stream.Tuple, len(at))
	for i, p := range at {
		cands[i] = tup(1, 1, uint64(i), float64(i), 50+p[0], 30+p[1])
	}
	assign := []*stream.Tuple{tup(0, 1, 0, 0, 50, 30), nil}
	buf := make([]*stream.Tuple, 0, len(cands))
	b.Run("sweep", func(b *testing.B) {
		step := compileStep(circle, 1)
		for i := 0; i < b.N; i++ {
			stepSink = len(step.sweep(assign, 1, cands, buf))
		}
	})
	b.Run("percandidate", func(b *testing.B) {
		prog := CompileExpr(circle)
		for i := 0; i < b.N; i++ {
			out := buf
			for _, cand := range cands {
				assign[1] = cand
				if prog.Eval(assign) {
					out = append(out, cand)
				}
			}
			stepSink = len(out)
		}
		assign[1] = nil
	})
	if stepSink != 8 {
		b.Fatalf("%d survivors, want 8", stepSink)
	}
}

// TestSteadyStateZeroAllocs pins the steady-state probe path at exactly
// zero allocations on equi-only and band-only conditions, on the standalone
// operator and on a Multi of one member and of two members in one residual
// class, counting and delivering (a WithEmit sink, on the first member of a
// Multi): a delivered result borrows the shell's one buffer. The FIFO hash
// buckets (compact-in-place once the backing array reaches 2× the live size)
// and the reused range views are what make the strict gate hold.
func TestSteadyStateZeroAllocs(t *testing.T) {
	conds := []struct {
		name string
		cond *Condition
	}{
		{"equi", EquiChain(3, 0)},
		{"band", Cross(3).Band(0, 0, 1, 0, 2).Band(1, 0, 2, 0, 2)},
	}
	wins := []stream.Time{stream.Second, stream.Second, stream.Second}
	multiOf := func(n int) func(*Condition, EmitFunc) func(*stream.Tuple) {
		return func(cond *Condition, emit EmitFunc) func(*stream.Tuple) {
			mo := NewMulti(wins)
			for q := range n {
				if q > 0 {
					emit = nil
				}
				mo.Add(cond, ResidualSig(cond, ""), emit, nil, nil)
			}
			return mo.Process
		}
	}
	kernels := []struct {
		name  string
		build func(*Condition, EmitFunc) func(*stream.Tuple)
	}{
		{"tuple", func(cond *Condition, emit EmitFunc) func(*stream.Tuple) {
			var opts []Option
			if emit != nil {
				opts = append(opts, WithEmit(emit))
			}
			return New(cond, wins, opts...).Process
		}},
		{"multi1", multiOf(1)},
		{"multi2", multiOf(2)},
	}
	for _, c := range conds {
		for _, k := range kernels {
			for _, deliver := range []bool{false, true} {
				name := c.name + "/" + k.name
				var emit EmitFunc
				var delivered int
				if deliver {
					name += "/deliver"
					emit = func(stream.Result) { delivered++ }
				}
				t.Run(name, func(t *testing.T) {
					feed := benchFeed(3, 6000, 50)
					orig, span := origTS(feed)
					process := k.build(c.cond, emit)
					half := len(feed) / 2
					for _, e := range feed[:half] {
						process(e)
					}
					i, before := half, delivered
					allocs := testing.AllocsPerRun(50, func() {
						for j := 0; j < 64; j++ {
							process(cycle(feed, orig, span, i))
							i++
						}
					})
					if allocs != 0 {
						t.Fatalf("steady-state probe allocated %v times per 64 tuples, want 0", allocs)
					}
					if deliver && delivered-before < 64 {
						t.Fatalf("only %d results delivered in the timed passes: the feed does not exercise delivery", delivered-before)
					}
				})
			}
		}
	}
}

// TestSteadyStateProcessDoesNotAllocate pins allocs/op ~0 on the
// counting-only equi probe path.
func TestSteadyStateProcessDoesNotAllocate(t *testing.T) {
	feed := benchFeed(3, 4000, 50)
	op := New(EquiChain(3, 0), []stream.Time{stream.Second, stream.Second, stream.Second})
	half := len(feed) / 2
	for _, e := range feed[:half] {
		op.Process(e)
	}
	i := half
	allocs := testing.AllocsPerRun(20, func() {
		for j := 0; j < 100; j++ {
			op.Process(feed[i%len(feed)])
			i++
		}
	})
	if allocs > 1 {
		t.Fatalf("steady-state Process allocated %v times per 100 tuples", allocs)
	}
}
