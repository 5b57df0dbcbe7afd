package join_test

// Tests and gauges of the delivering probe path — band grid probe, bytecode
// residual, materialized results — on the soccer query Q×2. They sit in the
// external test package because gen imports join.

import (
	"sort"
	"testing"

	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/stream"
	"repro/internal/window"
)

// soccerFeed returns the soccer dataset with its arrivals put in timestamp
// order — the operator's input is the Synchronizer's output — and their
// original timestamps.
func soccerFeed(d stream.Time) (*gen.Dataset, []*stream.Tuple, []stream.Time) {
	ds := gen.Soccer(gen.SoccerConfig{Duration: d, Seed: 42})
	feed := ds.Arrivals.Clone()
	sort.SliceStable(feed, func(i, j int) bool { return feed[i].TS < feed[j].TS })
	orig := make([]stream.Time, len(feed))
	for i, e := range feed {
		orig[i] = e.TS
	}
	return ds, feed, orig
}

// lap replays the feed endlessly, one horizon later per lap, so timestamps
// never wrap and every tuple stays in order. The horizon is many windows
// long: a tuple has expired long before its pointer comes around again.
func lap(feed []*stream.Tuple, orig []stream.Time, d stream.Time, i int) *stream.Tuple {
	e := feed[i%len(feed)]
	e.TS = orig[i%len(feed)] + d*stream.Time(i/len(feed))
	return e
}

// soccerUnfused is Q×2 with the squared sID difference (attribute 0) added
// to the circle's sum, and 15², the largest it takes, to the squared
// radius: a fold that reads an attribute the grid does not store, so the
// grid decides only the box and the fold is swept over its members after
// the probe. Nearly every box member passes it.
func soccerUnfused(thr float64) *join.Condition {
	dx := join.Sub(join.Attr(0, 1), join.Attr(1, 1))
	dy := join.Sub(join.Attr(0, 2), join.Attr(1, 2))
	ds := join.Sub(join.Attr(0, 0), join.Attr(1, 0))
	return join.Cross(2).
		Band(0, 1, 1, 1, thr).
		Band(0, 2, 1, 2, thr).
		WhereExpr(join.Lt(join.Add(join.Add(join.Mul(dx, dx), join.Mul(dy, dy)), join.Mul(ds, ds)), join.ConstOf(thr*thr+15*15)))
}

// benchBandDeliver runs the delivering soccer gauges — Q×2 (/qx2), whose
// circle the grid scan decides, and soccerUnfused (/unfused) — through the
// kernel build makes, its sink counting into *delivered: expire + probe +
// insert per op, every result materialized. Besides results/op it reports
// cands/op, the box members a probe scans, counted after the timed loop by
// a band-only operator replaying the same arrivals.
func benchBandDeliver(b *testing.B, build func(cond *join.Condition, windows []stream.Time, delivered *int64) func(*stream.Tuple)) {
	const d = 60 * stream.Second
	for _, row := range []struct {
		name string
		cond func(*gen.Dataset) *join.Condition
	}{
		{"qx2", func(ds *gen.Dataset) *join.Condition { return ds.Cond }},
		{"unfused", func(*gen.Dataset) *join.Condition { return soccerUnfused(5) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			ds, feed, orig := soccerFeed(d)
			var delivered int64
			process := build(row.cond(ds), ds.Windows, &delivered)
			warm := len(feed) / 2
			for i := 0; i < warm; i++ {
				process(feed[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				process(lap(feed, orig, d, warm+i))
			}
			b.StopTimer()
			box := join.New(join.Cross(2).Band(0, 1, 1, 1, 5).Band(0, 2, 1, 2, 5), ds.Windows)
			for i := 0; i < warm+b.N; i++ {
				box.Process(lap(feed, orig, d, i))
			}
			b.ReportMetric(float64(delivered)/float64(warm+b.N), "results/op")
			b.ReportMetric(float64(box.Results())/float64(warm+b.N), "cands/op")
		})
	}
}

// BenchmarkProcessBandDeliver measures the delivering soccer gauges
// (benchBandDeliver) on the operator.
func BenchmarkProcessBandDeliver(b *testing.B) {
	benchBandDeliver(b, func(cond *join.Condition, windows []stream.Time, delivered *int64) func(*stream.Tuple) {
		return join.New(cond, windows, join.WithEmit(func(stream.Result) { *delivered++ })).Process
	})
}

// BenchmarkProcessBand measures a single-band step — the one-dimensional
// grid — on the soccer feed: |x0 − x1| ≤ 5 alone, counted and delivered.
// No gated workload has a single-band step; this is its gauge.
func BenchmarkProcessBand(b *testing.B) {
	const d = 60 * stream.Second
	for _, deliver := range []bool{false, true} {
		name := "count"
		if deliver {
			name = "deliver"
		}
		b.Run(name, func(b *testing.B) {
			ds, feed, orig := soccerFeed(d)
			cond := join.Cross(2).Band(0, 1, 1, 1, 5)
			var opts []join.Option
			if deliver {
				opts = append(opts, join.WithEmit(func(stream.Result) {}))
			}
			op := join.New(cond, ds.Windows, opts...)
			warm := len(feed) / 2
			for i := 0; i < warm; i++ {
				op.Process(feed[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Process(lap(feed, orig, d, warm+i))
			}
			b.ReportMetric(float64(op.Results())/float64(warm+b.N), "results/op")
		})
	}
}

// TestBandGridSteadyStateZeroAllocs: a window holding the soccer query's
// two-dimensional grid, fed a lapped soccer feed — expire, probe, insert —
// allocates nothing once warm: cells come back to slots they kept or that
// a sweep recycled, and nodes come off the pool's free list.
func TestBandGridSteadyStateZeroAllocs(t *testing.T) {
	const d = 60 * stream.Second
	ds, feed, orig := soccerFeed(d)
	key := window.GridKey{A: 1, B: 2, EpsA: 5, EpsB: 5}
	w := window.NewIndexed(ds.Windows[1], nil, []window.GridKey{key})
	g := w.Grid(key)
	var buf []*stream.Tuple
	i := 0
	step := func() {
		e := lap(feed, orig, d, i)
		i++
		w.Expire(e.TS - w.Size())
		buf = g.AppendBand(buf[:0], e.Attr(1), e.Attr(2))
		w.Insert(e)
	}
	for i < 2*len(feed) {
		step()
	}
	if allocs := testing.AllocsPerRun(5, func() {
		for j := 0; j < 2000; j++ {
			step()
		}
	}); allocs != 0 {
		t.Fatalf("a warmed band grid allocated %v times per 2000 arrivals", allocs)
	}
	if g.Len() != w.Len() || w.Len() == 0 {
		t.Fatalf("grid holds %d of the window's %d tuples", g.Len(), w.Len())
	}
}

// BenchmarkMultiBandDeliver is BenchmarkProcessBandDeliver through a Multi
// with two queries in one residual class, one of them with a sink: the
// residual is decided once per probe for both.
func BenchmarkMultiBandDeliver(b *testing.B) {
	benchBandDeliver(b, func(cond *join.Condition, windows []stream.Time, delivered *int64) func(*stream.Tuple) {
		mo := join.NewMulti(windows)
		sig := join.ResidualSig(cond, "")
		mo.Add(cond, sig, func(stream.Result) { *delivered++ }, nil, nil)
		mo.Add(cond, sig, nil, nil, nil)
		return mo.Process
	})
}

var progSink bool

// BenchmarkProgEval measures the circle residual dx² + dy² < r² in the VM.
func BenchmarkProgEval(b *testing.B) {
	ds, feed, _ := soccerFeed(5 * stream.Second)
	prog := join.CompileExpr(ds.Cond.Generics[0].Expr)
	var side [2][]*stream.Tuple
	for _, e := range feed {
		side[e.Src] = append(side[e.Src], e)
	}
	pairs := make([][2]*stream.Tuple, 1024)
	for i := range pairs {
		pairs[i] = [2]*stream.Tuple{side[0][i%len(side[0])], side[1][i*7%len(side[1])]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		progSink = prog.Eval(pairs[i%len(pairs)][:])
	}
}

// TestEmitAllocsAmortised gates the materialization cost: with an emit sink
// on a steady-state soccer feed, a pass allocates nothing — every result
// borrows the shell's one delivery buffer — on the standalone operator and
// on a one-member Multi alike.
func TestEmitAllocsAmortised(t *testing.T) {
	const d = 30 * stream.Second
	const pass = 512
	kernels := []struct {
		name  string
		build func(ds *gen.Dataset, emit join.EmitFunc) func(*stream.Tuple)
	}{
		{"Operator", func(ds *gen.Dataset, emit join.EmitFunc) func(*stream.Tuple) {
			return join.New(ds.Cond, ds.Windows, join.WithEmit(emit)).Process
		}},
		{"Multi", func(ds *gen.Dataset, emit join.EmitFunc) func(*stream.Tuple) {
			mo := join.NewMulti(ds.Windows)
			mo.Add(ds.Cond, join.ResidualSig(ds.Cond, ""), emit, nil, nil)
			return mo.Process
		}},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			ds, feed, orig := soccerFeed(d)
			var delivered int64
			process := k.build(ds, func(stream.Result) { delivered++ })
			i := 0
			for ; i < len(feed); i++ { // one lap: windows, indexes and buffers at steady state
				process(feed[i])
			}
			before := delivered
			const runs = 20
			allocs := testing.AllocsPerRun(runs, func() {
				for j := 0; j < pass; j++ {
					process(lap(feed, orig, d, i))
					i++
				}
			})
			perPass := float64(delivered-before) / (runs + 1) // AllocsPerRun warms up once
			if perPass < pass {
				t.Fatalf("only %.0f results per %d-tuple pass: the feed does not exercise delivery", perPass, pass)
			}
			if allocs != 0 {
				t.Fatalf("%.1f allocations per pass delivering %.0f results, want 0", allocs, perPass)
			}
		})
	}
}

// TestStepFilterZeroAllocs gates the swept residual: on a warmed soccer
// kernel — the operator, a Multi of one member, a Multi of two members in one
// residual class (the sink on the first) — the band probe, the band sweep
// and the circle sweep allocate nothing, whether results are counted or
// delivered to a sink.
func TestStepFilterZeroAllocs(t *testing.T) {
	const d = 30 * stream.Second
	const pass = 512
	multiOf := func(n int) func(*gen.Dataset, join.EmitFunc) (func(*stream.Tuple), func() int64) {
		return func(ds *gen.Dataset, emit join.EmitFunc) (func(*stream.Tuple), func() int64) {
			mo := join.NewMulti(ds.Windows)
			first := mo.Add(ds.Cond, join.ResidualSig(ds.Cond, ""), emit, nil, nil)
			for i := 1; i < n; i++ {
				mo.Add(ds.Cond, join.ResidualSig(ds.Cond, ""), nil, nil, nil)
			}
			return mo.Process, first.Results
		}
	}
	kernels := []struct {
		name  string
		build func(*gen.Dataset, join.EmitFunc) (process func(*stream.Tuple), results func() int64)
	}{
		{"Operator", func(ds *gen.Dataset, emit join.EmitFunc) (func(*stream.Tuple), func() int64) {
			op := join.New(ds.Cond, ds.Windows, join.WithEmit(emit))
			return op.Process, op.Results
		}},
		{"Multi1", multiOf(1)},
		{"Multi2", multiOf(2)},
	}
	for _, k := range kernels {
		for _, sink := range []bool{false, true} {
			ds, feed, orig := soccerFeed(d)
			var emit join.EmitFunc
			if sink {
				emit = func(stream.Result) {}
			}
			process, results := k.build(ds, emit)
			i := 0
			for ; i < len(feed); i++ {
				process(feed[i])
			}
			const runs = 20
			before := results()
			allocs := testing.AllocsPerRun(runs, func() {
				for j := 0; j < pass; j++ {
					process(lap(feed, orig, d, i))
					i++
				}
			})
			perPass := float64(results()-before) / (runs + 1)
			if perPass < pass {
				t.Fatalf("%s sink=%v: only %.0f results per %d-tuple pass: the feed does not exercise the residual", k.name, sink, perPass, pass)
			}
			if allocs != 0 {
				t.Fatalf("%s sink=%v: %.1f allocations per pass of %.0f results, want 0", k.name, sink, allocs, perPass)
			}
		}
	}
}

// TestRetainedResultsStayValid keeps the Clone of every Result delivered
// over the first part of a soccer run, pushes the rest of the feed, and then
// checks each clone against Condition.Matches and the src:seq signature it
// had on delivery — a clone sharing the delivery buffer fails it — and that
// appending to a clone does not write into anything else. The delivered
// Results themselves are borrowed: the kernel runs with PoisonDelivered on,
// so the borrowed buffer reads Poisoned once each sink returns.
func TestRetainedResultsStayValid(t *testing.T) {
	join.PoisonDelivered(true)
	defer join.PoisonDelivered(false)
	ds, feed, _ := soccerFeed(20 * stream.Second)
	type kept struct {
		r   stream.Result
		key difftest.Key
	}
	var all []kept
	var last stream.Result
	retain := true
	op := join.New(ds.Cond, ds.Windows, join.WithEmit(func(r stream.Result) {
		last = r
		if retain {
			all = append(all, kept{r.Clone(), difftest.KeyOf(r.Tuples)})
		}
	}))
	for i, e := range feed {
		if i == len(feed)/2 {
			retain = false
		}
		op.Process(e)
	}
	if len(all) < 1000 {
		t.Fatalf("only %d results retained: the feed does not exercise delivery", len(all))
	}
	for i, m := range last.Tuples {
		if m != join.Poisoned {
			t.Fatalf("member %d of the last borrowed result is %v after its sink returned, want join.Poisoned", i, m)
		}
	}
	intruder := &stream.Tuple{Src: 9}
	for _, k := range all {
		if len(k.r.Tuples) != cap(k.r.Tuples) {
			t.Fatalf("a clone has len %d, cap %d: an append would not copy", len(k.r.Tuples), cap(k.r.Tuples))
		}
		_ = append(k.r.Tuples, intruder) // must copy, not write into anything else
	}
	for i, k := range all {
		if got := difftest.KeyOf(k.r.Tuples); got != k.key {
			t.Fatalf("result %d changed after delivery: %s, was %s", i, got, k.key)
		}
		if !ds.Cond.Matches(k.r.Tuples) {
			t.Fatalf("result %d (%s) no longer satisfies the condition", i, k.key)
		}
	}
}
