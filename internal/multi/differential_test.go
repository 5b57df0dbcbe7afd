package multi_test

// Differential tests at the multi-query seam: every query registered with
// the shared-window engine must produce, bit-for-bit, the ordered result
// stream AND the K trajectory of a standalone core.Pipeline running the
// same query over the same arrivals — for every policy, on equi, band and
// generic condition mixes, across runtime add/remove, at every tested query
// count. CI runs these under -race.

import (
	"fmt"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/leakcheck"
	"repro/internal/multi"
	"repro/internal/plan"
	"repro/internal/stream"
)

// tightAdapt is an adaptation config with short intervals, so a few-second
// workload crosses many boundaries and the K trajectories have substance.
func tightAdapt() adapt.Config {
	return adapt.Config{Gamma: 0.9, P: 2000, L: 250, B: 50, G: 50}
}

// qspec is one query under test.
type qspec struct {
	name    string
	cond    func() *join.Condition
	windows []stream.Time
	policy  plan.Policy
	staticK stream.Time
	adapt   adapt.Config
	emit    bool // materialize results (disables the counting fast path)
}

// capture is everything a run exposes about one query.
type capture struct {
	results []string // ordered result signatures (emit runs)
	counts  []string // ordered "ts:n" per-arrival count records
	adapts  []core.AdaptEvent
	total   int64
	avgK    float64
	nAdapt  int64
}

// runStandalone executes one query on a classic pipeline over in (pushing
// all tuples; finishing only when finish is set) and captures its outputs.
func runStandalone(t *testing.T, s qspec, in stream.Batch, finish bool) capture {
	t.Helper()
	var cap capture
	pf, initialK := plan.PolicyFactoryFor(s.policy, s.staticK)
	cfg := core.Config{
		Windows:    s.windows,
		Cond:       s.cond(),
		Adapt:      s.adapt,
		Policy:     pf,
		InitialK:   initialK,
		EmitCounts: func(ts stream.Time, n int64) { cap.counts = append(cap.counts, fmt.Sprintf("%d:%d", ts, n)) },
		OnAdapt:    func(ev core.AdaptEvent) { cap.adapts = append(cap.adapts, ev) },
	}
	if s.emit {
		cfg.Emit = func(r stream.Result) { cap.results = append(cap.results, difftest.Sig(r.Tuples)) }
	}
	p := core.New(cfg)
	for _, e := range in {
		p.Push(e)
	}
	if finish {
		p.Finish()
	}
	cap.total = p.Results()
	cap.avgK = p.AvgK()
	cap.nAdapt = p.Adaptations()
	return cap
}

// addQuery registers s with the engine and returns the query handle plus
// its live capture (filled in as the engine runs).
func addQuery(en *multi.Engine, s qspec) (*multi.Query, *capture) {
	cap := &capture{}
	qc := multi.QueryConfig{
		Cond:       s.cond(),
		Windows:    s.windows,
		Adapt:      s.adapt,
		Policy:     s.policy,
		StaticK:    s.staticK,
		EmitCounts: func(ts stream.Time, n int64) { cap.counts = append(cap.counts, fmt.Sprintf("%d:%d", ts, n)) },
		OnAdapt:    func(ev core.AdaptEvent) { cap.adapts = append(cap.adapts, ev) },
	}
	if s.emit {
		qc.Emit = func(r stream.Result) { cap.results = append(cap.results, difftest.Sig(r.Tuples)) }
	}
	q := en.Add(qc)
	return q, cap
}

func finishCapture(q *multi.Query, cap *capture) {
	cap.total = q.Results()
	cap.avgK = q.AvgK()
	cap.nAdapt = q.Adaptations()
}

// sameRun asserts bit-for-bit equality of two captures: ordered results,
// ordered count records, the full adaptation-event trajectory, and the
// aggregate counters.
func sameRun(t *testing.T, name string, want, got capture) {
	t.Helper()
	if got.total != want.total {
		t.Errorf("%s: %d results, want %d", name, got.total, want.total)
	}
	if len(got.results) != len(want.results) {
		t.Errorf("%s: %d emitted results, want %d", name, len(got.results), len(want.results))
	} else {
		for i := range want.results {
			if got.results[i] != want.results[i] {
				t.Errorf("%s: result[%d] = %s, want %s", name, i, got.results[i], want.results[i])
				break
			}
		}
	}
	if len(got.counts) != len(want.counts) {
		t.Errorf("%s: %d count records, want %d", name, len(got.counts), len(want.counts))
	} else {
		for i := range want.counts {
			if got.counts[i] != want.counts[i] {
				t.Errorf("%s: count[%d] = %s, want %s", name, i, got.counts[i], want.counts[i])
				break
			}
		}
	}
	if len(got.adapts) != len(want.adapts) {
		t.Errorf("%s: %d adaptation events, want %d", name, len(got.adapts), len(want.adapts))
	} else {
		for i := range want.adapts {
			if got.adapts[i] != want.adapts[i] {
				t.Errorf("%s: adapt[%d] = %+v, want %+v", name, i, got.adapts[i], want.adapts[i])
				break
			}
		}
	}
	if got.avgK != want.avgK {
		t.Errorf("%s: AvgK %v, want %v", name, got.avgK, want.avgK)
	}
	if got.nAdapt != want.nAdapt {
		t.Errorf("%s: %d adaptations, want %d", name, got.nAdapt, want.nAdapt)
	}
}

func windows3() []stream.Time { return []stream.Time{700, 700, 700} }

// TestMultiIdenticalQueries: N identical model-policy queries share one
// ingest lane, one probe class and one residual class, and every one of
// them is bit-for-bit the standalone run — at every tested N, with and
// without materialization.
func TestMultiIdenticalQueries(t *testing.T) {
	leakcheck.Check(t)
	for _, emit := range []bool{false, true} {
		for _, n := range []int{1, 2, 4, 8} {
			for seed := int64(41); seed < 43; seed++ {
				in := difftest.MixWorkload(3, 350, seed, 14)
				s := qspec{name: "equichain3", cond: func() *join.Condition { return join.EquiChain(3, 0) },
					windows: windows3(), policy: plan.PolicyModel, adapt: tightAdapt(), emit: emit}
				want := runStandalone(t, s, in.Clone(), true)

				en := multi.NewEngine(3)
				qs := make([]*multi.Query, n)
				caps := make([]*capture, n)
				for i := 0; i < n; i++ {
					qs[i], caps[i] = addQuery(en, s)
				}
				if g := en.Groups(); len(g) != 1 || len(g[0].Classes) != 1 ||
					len(g[0].Classes[0].Residuals) != 1 || g[0].Classes[0].Residuals[0].Members != n {
					t.Fatalf("n=%d: expected 1 lane / 1 class / 1 residual ×%d, got %+v", n, n, g)
				}
				for _, e := range in.Clone() {
					en.Push(e)
				}
				en.Close()
				for i := 0; i < n; i++ {
					finishCapture(qs[i], caps[i])
					sameRun(t, fmt.Sprintf("emit=%t/n=%d/seed%d/q%d", emit, n, seed, i), want, *caps[i])
				}
			}
		}
	}
}

// TestMultiMixedQueries: heterogeneous conditions (equi, band, WhereExpr
// and opaque-closure generics), policies and windows, all in one engine:
// each query is bit-for-bit its standalone run, and structurally distinct
// queries land in distinct lanes or residual classes.
func TestMultiMixedQueries(t *testing.T) {
	leakcheck.Check(t)
	specs := []qspec{
		{name: "equichain-model", cond: func() *join.Condition { return join.EquiChain(3, 0) },
			windows: windows3(), policy: plan.PolicyModel, adapt: tightAdapt(), emit: true},
		{name: "band-mix-model", cond: func() *join.Condition {
			return join.Cross(3).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 8)
		}, windows: windows3(), policy: plan.PolicyModel, adapt: tightAdapt(), emit: true},
		{name: "generic-expr-nok", cond: func() *join.Condition {
			return join.EquiChain(3, 0).WhereExpr(join.Le(join.Attr(0, 1), join.Add(join.Attr(2, 1), join.ConstOf(40))))
		}, windows: windows3(), policy: plan.PolicyNoK, adapt: tightAdapt(), emit: true},
		{name: "generic-closure-static", cond: func() *join.Condition {
			return join.EquiChain(3, 0).Where([]int{0, 2}, func(a []*stream.Tuple) bool {
				return a[0].Attr(1) <= a[2].Attr(1)+40
			})
		}, windows: windows3(), policy: plan.PolicyStatic, staticK: 900, adapt: tightAdapt(), emit: true},
		{name: "equichain-maxk", cond: func() *join.Condition { return join.EquiChain(3, 0) },
			windows: windows3(), policy: plan.PolicyMaxK, adapt: tightAdapt(), emit: true},
		{name: "equichain-wide-nok", cond: func() *join.Condition { return join.EquiChain(3, 0) },
			windows: []stream.Time{900, 900, 900}, policy: plan.PolicyNoK, adapt: tightAdapt(), emit: false},
	}
	for seed := int64(41); seed < 43; seed++ {
		in := difftest.MixWorkload(3, 350, seed, 14)
		wants := make([]capture, len(specs))
		for i, s := range specs {
			wants[i] = runStandalone(t, s, in.Clone(), true)
		}
		en := multi.NewEngine(3)
		qs := make([]*multi.Query, len(specs))
		caps := make([]*capture, len(specs))
		for i, s := range specs {
			qs[i], caps[i] = addQuery(en, s)
		}
		for _, e := range in.Clone() {
			en.Push(e)
		}
		en.Close()
		for i, s := range specs {
			finishCapture(qs[i], caps[i])
			sameRun(t, fmt.Sprintf("%s/seed%d", s.name, seed), wants[i], *caps[i])
		}
	}
}

// TestMultiSharedPrefixGrouping: queries with the same equi/band skeleton
// but different residuals share one probe class with separate residual
// classes; a different skeleton gets its own class.
func TestMultiSharedPrefixGrouping(t *testing.T) {
	leakcheck.Check(t)
	en := multi.NewEngine(3)
	mk := func(c *join.Condition) qspec {
		return qspec{cond: func() *join.Condition { return c },
			windows: windows3(), policy: plan.PolicyNoK, adapt: tightAdapt()}
	}
	addQuery(en, mk(join.EquiChain(3, 0)))
	addQuery(en, mk(join.EquiChain(3, 0).WhereExpr(join.Lt(join.Attr(0, 1), join.Attr(1, 1)))))
	addQuery(en, mk(join.Cross(3).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 8)))
	g := en.Groups()
	if len(g) != 1 {
		t.Fatalf("expected 1 shared lane (all NoK, same windows), got %d", len(g))
	}
	if len(g[0].Classes) != 2 {
		t.Fatalf("expected 2 probe classes (equichain skeleton ×2 residuals, band skeleton), got %+v", g[0].Classes)
	}
	if len(g[0].Classes[0].Residuals) != 2 {
		t.Fatalf("expected the equichain class to hold 2 residual classes, got %+v", g[0].Classes[0])
	}
}

// TestMultiAddMidStream: a query added after half the input starts cold at
// the current position and is bit-for-bit a standalone run over the
// remaining tuples; the earlier queries stay bit-for-bit their full runs.
func TestMultiAddMidStream(t *testing.T) {
	leakcheck.Check(t)
	for seed := int64(41); seed < 43; seed++ {
		in := difftest.MixWorkload(3, 350, seed, 14)
		cut := len(in) / 2
		s := qspec{cond: func() *join.Condition { return join.EquiChain(3, 0) },
			windows: windows3(), policy: plan.PolicyModel, adapt: tightAdapt(), emit: true}
		wantFull := runStandalone(t, s, in.Clone(), true)
		wantTail := runStandalone(t, s, in.Clone()[cut:], true)

		en := multi.NewEngine(3)
		q1, cap1 := addQuery(en, s)
		q2, cap2 := addQuery(en, s)
		feed := in.Clone()
		for _, e := range feed[:cut] {
			en.Push(e)
		}
		q3, cap3 := addQuery(en, s)
		if q3.Epoch() != int64(cut) {
			t.Fatalf("late query epoch = %d, want %d", q3.Epoch(), cut)
		}
		for _, e := range feed[cut:] {
			en.Push(e)
		}
		en.Close()
		finishCapture(q1, cap1)
		finishCapture(q2, cap2)
		finishCapture(q3, cap3)
		sameRun(t, fmt.Sprintf("seed%d/early-q1", seed), wantFull, *cap1)
		sameRun(t, fmt.Sprintf("seed%d/early-q2", seed), wantFull, *cap2)
		sameRun(t, fmt.Sprintf("seed%d/late-q3", seed), wantTail, *cap3)
	}
}

// TestMultiRemoveMidStream: a query removed after half the input has
// produced exactly the results of a standalone run stopped — unflushed —
// at the same position, and the surviving queries are unaffected.
func TestMultiRemoveMidStream(t *testing.T) {
	leakcheck.Check(t)
	for seed := int64(41); seed < 43; seed++ {
		in := difftest.MixWorkload(3, 350, seed, 14)
		cut := len(in) / 2
		s := qspec{cond: func() *join.Condition { return join.EquiChain(3, 0) },
			windows: windows3(), policy: plan.PolicyModel, adapt: tightAdapt(), emit: true}
		sOther := qspec{cond: func() *join.Condition {
			return join.Cross(3).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 8)
		}, windows: windows3(), policy: plan.PolicyModel, adapt: tightAdapt(), emit: true}
		wantFull := runStandalone(t, s, in.Clone(), true)
		wantOther := runStandalone(t, sOther, in.Clone(), true)
		wantHead := runStandalone(t, s, in.Clone()[:cut], false)

		en := multi.NewEngine(3)
		q1, cap1 := addQuery(en, s)
		q2, cap2 := addQuery(en, s)
		qo, capo := addQuery(en, sOther)
		feed := in.Clone()
		for _, e := range feed[:cut] {
			en.Push(e)
		}
		finishCapture(q2, cap2)
		en.Remove(q2)
		for _, e := range feed[cut:] {
			en.Push(e)
		}
		en.Close()
		finishCapture(q1, cap1)
		finishCapture(qo, capo)
		sameRun(t, fmt.Sprintf("seed%d/removed", seed), wantHead, *cap2)
		sameRun(t, fmt.Sprintf("seed%d/survivor-same", seed), wantFull, *cap1)
		sameRun(t, fmt.Sprintf("seed%d/survivor-other", seed), wantOther, *capo)
	}
}

// TestMultiAddRemoveChurn: queries joining and leaving at several points of
// one run, each compared to its standalone reference over exactly the
// arrivals it was registered for.
func TestMultiAddRemoveChurn(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.MixWorkload(3, 360, 42, 14)
	third := len(in) / 3
	s := qspec{cond: func() *join.Condition { return join.EquiChain(3, 0) },
		windows: windows3(), policy: plan.PolicyModel, adapt: tightAdapt(), emit: true}

	wantFull := runStandalone(t, s, in.Clone(), true)
	wantMid := runStandalone(t, s, in.Clone()[third:2*third], false)
	wantTail := runStandalone(t, s, in.Clone()[third:], true)

	en := multi.NewEngine(3)
	q1, cap1 := addQuery(en, s)
	feed := in.Clone()
	for _, e := range feed[:third] {
		en.Push(e)
	}
	q2, cap2 := addQuery(en, s)
	q3, cap3 := addQuery(en, s)
	for _, e := range feed[third : 2*third] {
		en.Push(e)
	}
	finishCapture(q2, cap2)
	en.Remove(q2)
	for _, e := range feed[2*third:] {
		en.Push(e)
	}
	en.Close()
	finishCapture(q1, cap1)
	finishCapture(q3, cap3)
	sameRun(t, "churn/full", wantFull, *cap1)
	sameRun(t, "churn/mid", wantMid, *cap2)
	sameRun(t, "churn/tail", wantTail, *cap3)
}

// TestMultiLifecyclePanics pins the engine lifecycle: every misuse panics
// rather than silently corrupting shared state.
func TestMultiLifecyclePanics(t *testing.T) {
	leakcheck.Check(t)
	s := qspec{cond: func() *join.Condition { return join.EquiChain(2, 0) },
		windows: []stream.Time{500, 500}, policy: plan.PolicyNoK, adapt: tightAdapt()}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}

	en := multi.NewEngine(2)
	q, _ := addQuery(en, s)
	en.Push(&stream.Tuple{TS: 100, Src: 0, Attrs: []float64{1, 1}})
	en.Close()
	mustPanic("push-after-close", func() { en.Push(&stream.Tuple{TS: 200, Src: 1, Attrs: []float64{1, 1}}) })
	mustPanic("double-close", func() { en.Close() })
	mustPanic("add-after-close", func() { addQuery(en, s) })
	mustPanic("remove-after-close", func() { en.Remove(q) })

	en2 := multi.NewEngine(2)
	q2, _ := addQuery(en2, s)
	en2.Remove(q2)
	mustPanic("double-remove", func() { en2.Remove(q2) })
	mustPanic("remove-foreign", func() {
		en3 := multi.NewEngine(2)
		q3, _ := addQuery(en3, s)
		en2.Remove(q3)
	})
	mustPanic("set-emit-removed", func() { q2.SetEmit(func(stream.Result) {}) })

	mustPanic("mutate-after-add", func() {
		en4 := multi.NewEngine(2)
		cond := join.EquiChain(2, 0)
		en4.Add(multi.QueryConfig{Cond: cond, Windows: []stream.Time{500, 500},
			Adapt: tightAdapt(), Policy: plan.PolicyNoK})
		cond.Equi(0, 1, 1, 1)
	})
	mustPanic("arity-mismatch", func() {
		en5 := multi.NewEngine(3)
		addQuery(en5, s)
	})
}
