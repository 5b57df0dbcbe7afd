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

// BenchmarkProcessBandDeliver measures expire + probe + insert on the soccer
// query with every result materialized and handed to a counting sink.
func BenchmarkProcessBandDeliver(b *testing.B) {
	const d = 60 * stream.Second
	ds, feed, orig := soccerFeed(d)
	var delivered int64
	op := join.New(ds.Cond, ds.Windows, join.WithEmit(func(stream.Result) { delivered++ }))
	warm := len(feed) / 2
	for i := 0; i < warm; i++ {
		op.Process(feed[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Process(lap(feed, orig, d, warm+i))
	}
	b.ReportMetric(float64(delivered)/float64(warm+b.N), "results/op")
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
// with two soccer queries in one residual class, one of them with a sink:
// the circle is swept once per probe for both.
func BenchmarkMultiBandDeliver(b *testing.B) {
	const d = 60 * stream.Second
	ds, feed, orig := soccerFeed(d)
	var delivered int64
	mo := join.NewMulti(ds.Windows)
	sig := join.ResidualSig(ds.Cond, "")
	mo.Add(ds.Cond, sig, func(stream.Result) { delivered++ }, nil, nil)
	mo.Add(ds.Cond, sig, nil, nil, nil)
	warm := len(feed) / 2
	for i := 0; i < warm; i++ {
		mo.Process(feed[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mo.Process(lap(feed, orig, d, warm+i))
	}
	b.ReportMetric(float64(delivered)/float64(warm+b.N), "results/op")
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
// on a steady-state soccer feed, a pass allocates at most one pointer block
// per 16 results (the slab serves 32 at m = 2), on the standalone operator
// and on a one-member Multi alike.
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
			if limit := perPass/16 + 1; allocs > limit {
				t.Fatalf("%.1f allocations per pass delivering %.0f results, want ≤ %.1f", allocs, perPass, limit)
			}
		})
	}
}

// TestStepFilterZeroAllocs gates the swept residual: on a warmed soccer
// kernel — the operator, a Multi of one member, a Multi of two members in one
// residual class (the sink on the first) — the band probe, the band sweep
// and the circle sweep allocate nothing when results are only counted, and
// with a sink nothing beyond the pointer blocks results are carved from (one
// per 32 results at m = 2).
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
			limit := 0.0
			if sink {
				limit = perPass/32 + 1
			}
			if allocs > limit {
				t.Fatalf("%s sink=%v: %.1f allocations per pass of %.0f results, want ≤ %.1f", k.name, sink, allocs, perPass, limit)
			}
		}
	}
}

// TestRetainedResultsStayValid keeps every Result delivered over the first
// part of a soccer run, pushes the rest of the feed, and then checks each
// retained Tuples slice against Condition.Matches and the src:seq signature
// it had on delivery — a slab handed out twice fails it — and that appending
// to a retained slice does not write into its neighbour.
func TestRetainedResultsStayValid(t *testing.T) {
	ds, feed, _ := soccerFeed(20 * stream.Second)
	type kept struct {
		r   stream.Result
		sig string
	}
	var all []kept
	retain := true
	op := join.New(ds.Cond, ds.Windows, join.WithEmit(func(r stream.Result) {
		if retain {
			all = append(all, kept{r, difftest.Sig(r.Tuples)})
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
	intruder := &stream.Tuple{Src: 9}
	for _, k := range all {
		_ = append(k.r.Tuples, intruder) // must copy, not write into the next result's slot
	}
	for i, k := range all {
		if got := difftest.Sig(k.r.Tuples); got != k.sig {
			t.Fatalf("result %d changed after delivery: %s, was %s", i, got, k.sig)
		}
		if !ds.Cond.Matches(k.r.Tuples) {
			t.Fatalf("result %d (%s) no longer satisfies the condition", i, k.sig)
		}
	}
}
