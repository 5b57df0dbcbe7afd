package qdhj

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/leakcheck"
	"repro/internal/stream"
)

// multiFeed builds a 3-stream workload with bounded disorder for the
// multi-query tests.
func multiFeed(rounds int, seed int64) stream.Batch {
	rng := rand.New(rand.NewSource(seed))
	var out stream.Batch
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

	// trace captures the ordered results and the K trajectory through opts.
	trace := func() (*difftest.Run, QueryOption, QueryOption) {
		r := difftest.NewRun()
		r.Order, r.Ks = []difftest.Key{}, []difftest.KStep{}
		return r, WithResults(r.Emit), WithAdaptHook(func(ev AdaptEvent) { r.Adapt(difftest.KStep(ev)) })
	}
	want, results, adapts := trace()
	ref := NewJoin(cond(), windows, multiOpt(), results, adapts)
	pushAll(ref, in.Clone())
	want.Count, want.AvgK = ref.Results(), ref.AvgK()

	const n = 4
	mj := NewMultiJoin(3)
	got := make([]*difftest.Run, n)
	mqs := make([]*MultiQuery, n)
	for i := range mqs {
		got[i], results, adapts = trace()
		mqs[i] = mj.Add(cond(), windows, multiOpt(), results, adapts)
	}
	pushAll(mj, in.Clone())
	for i, q := range mqs {
		got[i].Count, got[i].AvgK = q.Results(), q.AvgK()
		difftest.Compare(t, fmt.Sprintf("q%d", i), want, got[i])
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

	var want []difftest.Key
	ref := NewJoin(EquiChain(3, 0), windows, multiOpt(),
		WithResults(func(r Result) { want = append(want, difftest.KeyOf(r.Tuples)) }))
	pushAll(ref, in.Clone())

	mj := NewMultiJoin(3)
	mq := mj.Add(EquiChain(3, 0), windows, multiOpt())
	mqRemoved := mj.Add(EquiChain(3, 0), windows, multiOpt())
	ch := mq.RunChannel()
	chRemoved := mqRemoved.RunChannel()

	got := make(chan []difftest.Key, 1)
	go func() {
		var sigs []difftest.Key
		for r := range ch {
			sigs = append(sigs, difftest.KeyOf(r.Tuples))
		}
		got <- sigs
	}()
	removedClosed := make(chan struct{})
	go func() {
		for range chRemoved {
		}
		close(removedClosed)
	}()

	feed := in.Clone()
	half := len(feed) / 2
	for _, e := range feed[:half] {
		mj.Push(e)
	}
	mj.Remove(mqRemoved)
	<-removedClosed
	pushAll(mj, feed[half:])

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

	_ = stream.Time(0)
}
