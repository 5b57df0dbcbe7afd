package qdhj

import (
	"testing"

	"repro/internal/difftest"
	"repro/internal/leakcheck"
	"repro/internal/oracle"
	"repro/internal/stream"
)

// feed builds a 2-stream equi workload with some disorder.
func feed(n int, seed int64) stream.Batch { return difftest.Feed(2, n, seed, 10, 2000, 0) }

func TestJoinPolicies(t *testing.T) {
	leakcheck.Check(t)
	in := feed(3000, 1)
	w := []Time{Second, Second}
	truth := oracle.TrueResults(EquiChain(2, 0), []stream.Time{Second, Second}, in.Clone())

	run := func(opt Options) int64 {
		j := NewJoin(EquiChain(2, 0), w, opt)
		pushAll(j, in.Clone())
		return j.Results()
	}

	nok := run(Options{Policy: NoSlack})
	maxk := run(Options{Policy: MaxSlack})
	model := run(Options{Gamma: 0.9, Period: 10 * Second})

	if nok >= truth.Total() {
		t.Fatalf("NoSlack should lose results: %d of %d", nok, truth.Total())
	}
	if float64(maxk) < 0.97*float64(truth.Total()) {
		t.Fatalf("MaxSlack should be near-complete: %d of %d", maxk, truth.Total())
	}
	if model <= nok || model > maxk {
		t.Fatalf("quality-driven results %d should lie between NoSlack %d and MaxSlack %d",
			model, nok, maxk)
	}
}

func TestJoinLatencyOrdering(t *testing.T) {
	leakcheck.Check(t)
	in := feed(4000, 2)
	w := []Time{Second, Second}

	avgK := func(opt Options) float64 {
		j := NewJoin(EquiChain(2, 0), w, opt)
		pushAll(j, in.Clone())
		return j.AvgK()
	}
	low := avgK(Options{Gamma: 0.8, Period: 10 * Second})
	high := avgK(Options{Gamma: 0.99, Period: 10 * Second})
	maxk := avgK(Options{Policy: MaxSlack})
	if !(low <= high && high <= maxk) {
		t.Fatalf("avg K ordering violated: Γ=0.8→%v, Γ=0.99→%v, MaxSlack→%v", low, high, maxk)
	}
}

func TestStaticSlackAppliesImmediately(t *testing.T) {
	leakcheck.Check(t)
	j := NewJoin(EquiChain(2, 0), []Time{Second, Second},
		Options{Policy: StaticSlack, StaticK: 500})
	if j.CurrentK() != 500 {
		t.Fatalf("CurrentK = %v before first adaptation, want 500", j.CurrentK())
	}
}

func TestWithResultsSink(t *testing.T) {
	leakcheck.Check(t)
	var got []Result
	j := NewJoin(EquiChain(2, 0), []Time{Second, Second},
		Options{Policy: StaticSlack, StaticK: 2 * Second},
		WithResults(func(r Result) { got = append(got, r.Clone()) }),
	)
	j.Push(&Tuple{TS: 1000, Seq: 0, Src: 0, Attrs: []float64{7}})
	j.Push(&Tuple{TS: 1100, Seq: 1, Src: 1, Attrs: []float64{7}})
	j.Close()
	if len(got) != 1 {
		t.Fatalf("results = %d, want 1", len(got))
	}
	if got[0].TS != 1100 || len(got[0].Tuples) != 2 {
		t.Fatalf("bad result %+v", got[0])
	}
}

func TestWithResultCounts(t *testing.T) {
	leakcheck.Check(t)
	var n int64
	j := NewJoin(EquiChain(2, 0), []Time{Second, Second},
		Options{Policy: StaticSlack, StaticK: 2 * Second},
		WithResultCounts(func(ts Time, c int64) { n += c }),
	)
	pushAll(j, feed(500, 3))
	if n != j.Results() {
		t.Fatalf("count sink saw %d, Results() = %d", n, j.Results())
	}
	if n == 0 {
		t.Fatal("degenerate: no results")
	}
}

func TestRunChannel(t *testing.T) {
	leakcheck.Check(t)
	j := NewJoin(EquiChain(2, 0), []Time{Second, Second},
		Options{Policy: StaticSlack, StaticK: 2 * Second})
	in := make(chan *Tuple, 16)
	out := j.RunChannel(in)
	go func() {
		for _, e := range feed(500, 4) {
			in <- e
		}
		close(in)
	}()
	var n int64
	for range out {
		n++
	}
	if n != j.Results() {
		t.Fatalf("channel delivered %d, Results() = %d", n, j.Results())
	}
	if n == 0 {
		t.Fatal("degenerate: no results")
	}
}

// TestRunChannelPanicsOnWithResults: RunChannel must refuse to silently
// replace a sink installed at construction time (documented behavior).
func TestRunChannelPanicsOnWithResults(t *testing.T) {
	leakcheck.Check(t)
	j := NewJoin(EquiChain(2, 0), []Time{Second, Second},
		Options{Policy: StaticSlack, StaticK: Second},
		WithResults(func(Result) {}),
	)
	defer func() {
		if recover() == nil {
			t.Fatal("RunChannel must panic when a WithResults sink is installed")
		}
	}()
	j.RunChannel(make(chan *Tuple))
}

// TestRunChannelPanicsOnSecondCall: a second RunChannel would silently
// steal the first channel's emit callback; it must panic instead.
func TestRunChannelPanicsOnSecondCall(t *testing.T) {
	leakcheck.Check(t)
	j := NewJoin(EquiChain(2, 0), []Time{Second, Second},
		Options{Policy: StaticSlack, StaticK: Second})
	in := make(chan *Tuple)
	out := j.RunChannel(in)
	defer func() {
		if recover() == nil {
			t.Fatal("second RunChannel must panic")
		}
		close(in)
		for range out {
		}
	}()
	j.RunChannel(make(chan *Tuple))
}

// TestRunChannelFlushOrdering: results that are only released by the final
// buffer flush (tuples still sitting in K-slack when the input closes) must
// be delivered on the output channel before it closes.
func TestRunChannelFlushOrdering(t *testing.T) {
	leakcheck.Check(t)
	// A large static K keeps both matching tuples buffered in K-slack until
	// Close-time Flush: no result can be produced before the input closes.
	j := NewJoin(EquiChain(2, 0), []Time{Second, Second},
		Options{Policy: StaticSlack, StaticK: Minute})
	in := make(chan *Tuple)
	out := j.RunChannel(in)
	in <- &Tuple{TS: 1000, Seq: 0, Src: 0, Attrs: []float64{7}}
	in <- &Tuple{TS: 1100, Seq: 1, Src: 1, Attrs: []float64{7}}
	close(in)
	var got []Result
	for r := range out { // closes only after Finish flushed everything
		got = append(got, r)
	}
	if len(got) != 1 {
		t.Fatalf("flush delivered %d results before close, want 1", len(got))
	}
	if got[0].TS != 1100 {
		t.Fatalf("result ts = %d, want 1100", got[0].TS)
	}
	if j.Results() != 1 {
		t.Fatalf("Results = %d, want 1", j.Results())
	}
}

func TestAdaptHookFires(t *testing.T) {
	leakcheck.Check(t)
	var events int
	j := NewJoin(EquiChain(2, 0), []Time{Second, Second},
		Options{Gamma: 0.9, Period: 5 * Second, Interval: Second},
		WithAdaptHook(func(AdaptEvent) { events++ }),
	)
	for _, e := range feed(2000, 6) { // spans ~20 s
		j.Push(e)
	}
	j.Close()
	if events < 10 {
		t.Fatalf("adapt hook fired %d times, want ≥10", events)
	}
	if int64(events) != j.Adaptations() {
		t.Fatalf("hook count %d != Adaptations() %d", events, j.Adaptations())
	}
}

func TestStatsExposed(t *testing.T) {
	leakcheck.Check(t)
	j := NewJoin(EquiChain(2, 0), []Time{Second, Second}, Options{})
	j.Push(&Tuple{TS: 1000, Src: 0})
	j.Push(&Tuple{TS: 900, Src: 0})
	if got := j.Snapshot().MaxDelayAllTime; got != 100 {
		t.Fatalf("snapshot max delay = %v", got)
	}
}

// TestRunChannelSharded: the channel runner works on the sharded path and
// delivers the complete result set (in interval batches) before closing.
func TestRunChannelSharded(t *testing.T) {
	leakcheck.Check(t)
	mk := func(opts ...JoinOption) *Join {
		return NewJoin(EquiChain(2, 0), []Time{Second, Second},
			Options{Policy: StaticSlack, StaticK: 2 * Second}, opts...)
	}
	ref := mk()
	pushAll(ref, feed(800, 11).Clone())

	j := mk(WithShards(4))
	in := make(chan *Tuple, 64)
	out := j.RunChannel(in)
	go func() {
		for _, e := range feed(800, 11).Clone() {
			in <- e
		}
		close(in)
	}()
	var n int64
	for range out {
		n++
	}
	if n != ref.Results() || n != j.Results() {
		t.Fatalf("sharded channel delivered %d, Results() = %d, single-threaded = %d",
			n, j.Results(), ref.Results())
	}
}

// TestPushAfterClosePanics: a closed join cannot be restarted; pushing
// must fail loudly instead of silently dropping the tuple.
func TestPushAfterClosePanics(t *testing.T) {
	leakcheck.Check(t)
	for _, opts := range [][]JoinOption{nil, {WithShards(2)}} {
		j := NewJoin(EquiChain(2, 0), []Time{Second, Second}, Options{}, opts...)
		j.Push(&Tuple{TS: 1000, Src: 0, Attrs: []float64{1}})
		j.Close()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("opts=%d: Push after Close must panic", len(opts))
				}
			}()
			j.Push(&Tuple{TS: 1100, Src: 1, Attrs: []float64{1}})
		}()
	}
}

// TestConditionMutationAfterNewJoinPanics: adding predicates to a
// condition already compiled into a join would silently diverge the
// executors from Matches.
func TestConditionMutationAfterNewJoinPanics(t *testing.T) {
	leakcheck.Check(t)
	cond := EquiChain(2, 0)
	j := NewJoin(cond, []Time{Second, Second}, Options{}, WithShards(2))
	defer j.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a compiled condition must panic")
		}
	}()
	cond.Equi(0, 1, 1, 1)
}

// pushAll pushes every tuple of in into j, then closes it.
func pushAll(j interface {
	Push(*Tuple)
	Close()
}, in []*Tuple) {
	for _, e := range in {
		j.Push(e)
	}
	j.Close()
}
