package qdhj

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/leakcheck"
	"repro/internal/stream"
)

// multiFeed builds a 3-stream workload with bounded disorder for the
// multi-query tests.
func multiFeed(rounds int, seed int64) []*Tuple {
	rng := rand.New(rand.NewSource(seed))
	var out []*Tuple
	var seq uint64
	ts := Time(3000)
	for i := 0; i < rounds; i++ {
		ts += 10
		for src := 0; src < 3; src++ {
			t := ts
			if rng.Intn(4) == 0 {
				t -= Time(rng.Intn(1500))
			}
			out = append(out, &Tuple{TS: t, Seq: seq, Src: src,
				Attrs: []float64{float64(rng.Intn(12)), float64(rng.Intn(200))}})
			seq++
		}
	}
	return out
}

func cloneFeed(in []*Tuple) []*Tuple {
	out := make([]*Tuple, len(in))
	for i, t := range in {
		attrs := append([]float64(nil), t.Attrs...)
		out[i] = &Tuple{TS: t.TS, Seq: t.Seq, Src: t.Src, Attrs: attrs}
	}
	return out
}

func multiOpt() Options {
	return Options{Gamma: 0.9, Period: 2000, Interval: 250, BasicWindow: 50, Granularity: 50}
}

// TestMultiJoinVsStandalone: through the public API, every query on a
// shared MultiJoin is bit-for-bit a standalone Join — ordered results and
// the full adaptation trajectory.
func TestMultiJoinVsStandalone(t *testing.T) {
	leakcheck.Check(t)
	in := multiFeed(300, 7)
	windows := []Time{700, 700, 700}
	cond := func() *Condition { return EquiChain(3, 0) }

	var wantRes []string
	var wantAdapts []AdaptEvent
	ref := NewJoin(cond(), windows, multiOpt(),
		WithResults(func(r Result) { wantRes = append(wantRes, difftest.Sig(r.Tuples)) }),
		WithAdaptHook(func(ev AdaptEvent) { wantAdapts = append(wantAdapts, ev) }))
	for _, e := range cloneFeed(in) {
		ref.Push(e)
	}
	ref.Close()

	const n = 4
	mj := NewMultiJoin(3)
	gotRes := make([][]string, n)
	gotAdapts := make([][]AdaptEvent, n)
	mqs := make([]*MultiQuery, n)
	for i := 0; i < n; i++ {
		i := i
		mqs[i] = mj.Add(cond(), windows, multiOpt(),
			WithResults(func(r Result) { gotRes[i] = append(gotRes[i], difftest.Sig(r.Tuples)) }),
			WithAdaptHook(func(ev AdaptEvent) { gotAdapts[i] = append(gotAdapts[i], ev) }))
	}
	for _, e := range cloneFeed(in) {
		mj.Push(e)
	}
	mj.Close()

	if ref.Results() == 0 {
		t.Fatal("degenerate workload: standalone produced no results")
	}
	for i := 0; i < n; i++ {
		if got, want := mqs[i].Results(), ref.Results(); got != want {
			t.Errorf("q%d: %d results, want %d", i, got, want)
		}
		if len(gotRes[i]) != len(wantRes) {
			t.Errorf("q%d: %d emitted, want %d", i, len(gotRes[i]), len(wantRes))
			continue
		}
		for j := range wantRes {
			if gotRes[i][j] != wantRes[j] {
				t.Errorf("q%d: result[%d] = %s, want %s", i, j, gotRes[i][j], wantRes[j])
				break
			}
		}
		if len(gotAdapts[i]) != len(wantAdapts) {
			t.Errorf("q%d: %d adapt events, want %d", i, len(gotAdapts[i]), len(wantAdapts))
			continue
		}
		for j := range wantAdapts {
			if gotAdapts[i][j] != wantAdapts[j] {
				t.Errorf("q%d: adapt[%d] = %+v, want %+v", i, j, gotAdapts[i][j], wantAdapts[j])
				break
			}
		}
		if got, want := mqs[i].AvgK(), ref.AvgK(); got != want {
			t.Errorf("q%d: AvgK %v, want %v", i, got, want)
		}
	}

	snap := mj.Snapshot()
	if len(snap) != n {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), n)
	}
	for i, qs := range snap {
		if qs.ID != int64(i) || qs.Epoch != 0 || qs.Results != ref.Results() {
			t.Errorf("snapshot[%d] = %+v, want id=%d epoch=0 results=%d", i, qs, i, ref.Results())
		}
	}
}

// TestMultiJoinRunChannel: per-query result channels deliver the standalone
// result stream and close on Close (or Remove).
func TestMultiJoinRunChannel(t *testing.T) {
	leakcheck.Check(t)
	in := multiFeed(250, 11)
	windows := []Time{700, 700, 700}

	var want []string
	ref := NewJoin(EquiChain(3, 0), windows, multiOpt(),
		WithResults(func(r Result) { want = append(want, difftest.Sig(r.Tuples)) }))
	for _, e := range cloneFeed(in) {
		ref.Push(e)
	}
	ref.Close()

	mj := NewMultiJoin(3)
	mq := mj.Add(EquiChain(3, 0), windows, multiOpt())
	mqRemoved := mj.Add(EquiChain(3, 0), windows, multiOpt())
	ch := mq.RunChannel()
	chRemoved := mqRemoved.RunChannel()

	got := make(chan []string, 1)
	go func() {
		var sigs []string
		for r := range ch {
			sigs = append(sigs, difftest.Sig(r.Tuples))
		}
		got <- sigs
	}()
	removedClosed := make(chan struct{})
	go func() {
		for range chRemoved {
		}
		close(removedClosed)
	}()

	feed := cloneFeed(in)
	half := len(feed) / 2
	for _, e := range feed[:half] {
		mj.Push(e)
	}
	mj.Remove(mqRemoved)
	<-removedClosed
	for _, e := range feed[half:] {
		mj.Push(e)
	}
	mj.Close()

	sigs := <-got
	if len(sigs) != len(want) {
		t.Fatalf("channel delivered %d results, want %d", len(sigs), len(want))
	}
	for i := range want {
		if sigs[i] != want[i] {
			t.Fatalf("channel result[%d] = %s, want %s", i, sigs[i], want[i])
		}
	}
}

// TestMultiJoinExplain: the sharing report shows one lane with one probe
// class and a fanned residual for identical queries, and separates
// structurally different queries.
func TestMultiJoinExplain(t *testing.T) {
	leakcheck.Check(t)
	windows := []Time{700, 700, 700}
	mj := NewMultiJoin(3)
	for i := 0; i < 8; i++ {
		mj.Add(EquiChain(3, 0), windows, multiOpt())
	}
	mj.Add(Cross(3).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 8), windows, multiOpt())
	mj.Add(EquiChain(3, 0), windows, Options{Policy: NoSlack})

	// Model-policy buffer trajectories depend on the query's own condition
	// (its profiler sees that query's match counts), so the band query gets
	// its own lane; only provably identical trajectories share one.
	info := mj.SharingInfo()
	if len(info) != 3 {
		t.Fatalf("expected 3 lanes (equichain-model ×8, band-model, NoSlack), got %d", len(info))
	}
	if len(info[0].Classes) != 1 || info[0].Classes[0].Residuals[0].Members != 8 {
		t.Fatalf("unexpected lane 0 structure: %+v", info[0])
	}
	out := mj.Explain()
	for _, frag := range []string{"10 queries", "3 shared lanes", "residual ×8", "probe class"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}
	mj.Close()
}

// TestMultiJoinLifecyclePanics pins the public lifecycle contract.
func TestMultiJoinLifecyclePanics(t *testing.T) {
	leakcheck.Check(t)
	windows := []Time{500, 500}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}

	mj := NewMultiJoin(2)
	mq := mj.Add(EquiChain(2, 0), windows, multiOpt())
	mj.Push(&Tuple{TS: 100, Src: 0, Attrs: []float64{1, 1}})
	mj.Close()
	mustPanic("push-after-close", func() { mj.Push(&Tuple{TS: 200, Src: 1, Attrs: []float64{1, 1}}) })
	mustPanic("double-close", func() { mj.Close() })
	mustPanic("add-after-close", func() { mj.Add(EquiChain(2, 0), windows, multiOpt()) })
	mustPanic("remove-after-close", func() { mj.Remove(mq) })

	mj2 := NewMultiJoin(2)
	mq2 := mj2.Add(EquiChain(2, 0), windows, multiOpt())
	mustPanic("remove-nil", func() { mj2.Remove(nil) })
	mustPanic("remove-foreign", func() {
		mj3 := NewMultiJoin(2)
		mq3 := mj3.Add(EquiChain(2, 0), windows, multiOpt())
		mj2.Remove(mq3)
	})
	mj2.Remove(mq2)
	mustPanic("double-remove", func() { mj2.Remove(mq2) })
	mustPanic("runchannel-removed", func() { mq2.RunChannel() })

	mj4 := NewMultiJoin(2)
	mq4 := mj4.Add(EquiChain(2, 0), windows, multiOpt())
	mq4.RunChannel()
	mustPanic("runchannel-twice", func() { mq4.RunChannel() })
	mq5 := mj4.Add(EquiChain(2, 0), windows, multiOpt(), WithResults(func(Result) {}))
	mustPanic("runchannel-with-sink", func() { mq5.RunChannel() })

	mustPanic("mutate-cond-after-add", func() {
		mj5 := NewMultiJoin(2)
		cond := EquiChain(2, 0)
		mj5.Add(cond, windows, multiOpt())
		cond.Equi(0, 1, 1, 1)
	})

	for name, opt := range map[string]JoinOption{
		"with-shards":      WithShards(2),
		"with-autoplan":    WithAutoPlan(),
		"with-supervision": WithSupervision(Supervision{}),
	} {
		opt := opt
		mustPanic(name, func() {
			mj6 := NewMultiJoin(2)
			mj6.Add(EquiChain(2, 0), windows, multiOpt(), opt)
		})
	}
	_ = stream.Time(0)
}
