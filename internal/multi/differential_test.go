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

// capture returns a run capturing everything the differential compares
// of one query: the ordered per-arrival count records, the K trajectory
// and, when emit is set, the ordered result stream.
func capture(emit bool) *difftest.Run {
	r := difftest.NewRun()
	r.Records, r.Ks = []difftest.Record{}, []difftest.KStep{}
	if emit {
		r.Order = []difftest.Key{}
	}
	return r
}

// counters is the part of a query or pipeline the capture reads at the end.
type counters interface {
	Results() int64
	AvgK() float64
	Adaptations() int64
}

// finish records c's aggregate counters into r; the adaptation counter must
// agree with the captured trajectory.
func finish(t *testing.T, c counters, r *difftest.Run) {
	t.Helper()
	r.Count, r.AvgK = c.Results(), c.AvgK()
	if n := c.Adaptations(); n != int64(len(r.Ks)) {
		t.Errorf("%d adaptations counted, %d observed", n, len(r.Ks))
	}
}

// runStandalone executes one query on a classic pipeline over in (pushing
// all tuples; finishing only when finish is set) and captures its outputs.
func runStandalone(t *testing.T, s qspec, in stream.Batch, finished bool) *difftest.Run {
	t.Helper()
	r := capture(s.emit)
	pf, initialK := plan.PolicyFactoryFor(s.policy, s.staticK)
	cfg := core.Config{
		Windows:    s.windows,
		Cond:       s.cond(),
		Adapt:      s.adapt,
		Policy:     pf,
		InitialK:   initialK,
		EmitCounts: r.CountAt,
		OnAdapt:    func(ev core.AdaptEvent) { r.Adapt(difftest.KStep(ev)) },
	}
	if s.emit {
		cfg.Emit = r.Emit
	}
	p := core.New(cfg)
	for _, e := range in {
		p.Push(e)
	}
	if finished {
		p.Finish()
	}
	finish(t, p, r)
	return r
}

// addQuery registers s with the engine and returns the query handle plus
// its live capture (filled in as the engine runs).
func addQuery(en *multi.Engine, s qspec) (*multi.Query, *difftest.Run) {
	r := capture(s.emit)
	qc := multi.QueryConfig{
		Cond:       s.cond(),
		Windows:    s.windows,
		Adapt:      s.adapt,
		Policy:     s.policy,
		StaticK:    s.staticK,
		EmitCounts: r.CountAt,
		OnAdapt:    func(ev core.AdaptEvent) { r.Adapt(difftest.KStep(ev)) },
	}
	if s.emit {
		qc.Emit = r.Emit
	}
	return en.Add(qc), r
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
				caps := make([]*difftest.Run, n)
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
					finish(t, qs[i], caps[i])
					difftest.Compare(t, fmt.Sprintf("emit=%t/n=%d/seed%d/q%d", emit, n, seed, i), want, caps[i])
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
		wants := make([]*difftest.Run, len(specs))
		for i, s := range specs {
			wants[i] = runStandalone(t, s, in.Clone(), true)
		}
		en := multi.NewEngine(3)
		qs := make([]*multi.Query, len(specs))
		caps := make([]*difftest.Run, len(specs))
		for i, s := range specs {
			qs[i], caps[i] = addQuery(en, s)
		}
		for _, e := range in.Clone() {
			en.Push(e)
		}
		en.Close()
		for i, s := range specs {
			finish(t, qs[i], caps[i])
			difftest.Compare(t, fmt.Sprintf("%s/seed%d", s.name, seed), wants[i], caps[i])
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
		finish(t, q1, cap1)
		finish(t, q2, cap2)
		finish(t, q3, cap3)
		difftest.Compare(t, fmt.Sprintf("seed%d/early-q1", seed), wantFull, cap1)
		difftest.Compare(t, fmt.Sprintf("seed%d/early-q2", seed), wantFull, cap2)
		difftest.Compare(t, fmt.Sprintf("seed%d/late-q3", seed), wantTail, cap3)
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
		finish(t, q2, cap2)
		en.Remove(q2)
		for _, e := range feed[cut:] {
			en.Push(e)
		}
		en.Close()
		finish(t, q1, cap1)
		finish(t, qo, capo)
		difftest.Compare(t, fmt.Sprintf("seed%d/removed", seed), wantHead, cap2)
		difftest.Compare(t, fmt.Sprintf("seed%d/survivor-same", seed), wantFull, cap1)
		difftest.Compare(t, fmt.Sprintf("seed%d/survivor-other", seed), wantOther, capo)
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
	finish(t, q2, cap2)
	en.Remove(q2)
	for _, e := range feed[2*third:] {
		en.Push(e)
	}
	en.Close()
	finish(t, q1, cap1)
	finish(t, q3, cap3)
	difftest.Compare(t, "churn/full", wantFull, cap1)
	difftest.Compare(t, "churn/mid", wantMid, cap2)
	difftest.Compare(t, "churn/tail", wantTail, cap3)
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

// TestMultiPoolHistory: a cohort's shared Statistics Manager keeps the delay
// history iff one of its queries runs the model policy. The first cohort's
// NoK, Static and MaxK queries share a history-free pool; in the cohort
// added mid-stream a model query joins after a NoK one and the pool they
// share keeps the history from its first arrival. Every query stays
// bit-for-bit its standalone run.
func TestMultiPoolHistory(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.MixWorkload(3, 350, 41, 14)
	cut := len(in) / 2
	spec := func(p plan.Policy, k stream.Time) qspec {
		return qspec{cond: func() *join.Condition { return join.EquiChain(3, 0) },
			windows: windows3(), policy: p, staticK: k, adapt: tightAdapt(), emit: true}
	}
	early := []qspec{spec(plan.PolicyNoK, 0), spec(plan.PolicyStatic, 300), spec(plan.PolicyMaxK, 0)}
	late := []qspec{spec(plan.PolicyNoK, 0), spec(plan.PolicyModel, 0)}

	en := multi.NewEngine(3)
	var qs []*multi.Query
	var caps, wants []*difftest.Run
	add := func(s qspec, from int) {
		q, c := addQuery(en, s)
		qs, caps = append(qs, q), append(caps, c)
		wants = append(wants, runStandalone(t, s, in.Clone()[from:], true))
	}
	for _, s := range early {
		add(s, 0)
	}
	feed := in.Clone()
	for _, e := range feed[:cut] {
		en.Push(e)
	}
	for _, s := range late {
		add(s, cut)
	}
	for _, e := range feed[cut:] {
		en.Push(e)
	}
	for i, q := range qs {
		st, model, pool := q.Loop().Stats(), i >= len(early), qs[0].Loop().Stats()
		if model {
			pool = qs[len(qs)-1].Loop().Stats()
		}
		if st != pool {
			t.Fatalf("q%d does not read its cohort's one pool", i)
		}
		if (st.HistoryLen(0) > 0) != model {
			t.Fatalf("q%d: HistoryLen(0) %d; the pool should keep the history: %v", i, st.HistoryLen(0), model)
		}
	}
	en.Close()
	for i, q := range qs {
		finish(t, q, caps[i])
		difftest.Compare(t, fmt.Sprintf("q%d", i), wants[i], caps[i])
	}
}
