// Package multi is the shared-window multi-query engine: N registered join
// queries execute against ONE shared ingest layer per compatibility group —
// one K-slack buffer set, one Synchronizer, one window ring with one
// hash/range index set per (stream, key-class), inserted and expired once
// per arrival regardless of query count — and one probe pass per arrival
// (join.Multi) fans results out to every registered query.
//
// # Sharing hierarchy
//
// The engine never trades sharing for correctness: every query's results and
// K trajectory must be bit-for-bit those of a standalone core.Pipeline fed
// the same arrivals. What may be shared follows from what determines those
// trajectories, and the engine groups accordingly, top down:
//
//   - Cohort (registration epoch): the K-slack delay annotation and the
//     Statistics Manager histories depend on every arrival since the
//     query's registration, so only queries registered at the same point of
//     the input (same count of engine pushes) can share ANY ingest state.
//     Queries added mid-stream start a fresh cohort — cold windows at the
//     current input point, exactly like a standalone join started there.
//     Later cohorts process a per-cohort clone of each arriving tuple,
//     because the K-slack annotates Delay in place and a younger cohort's
//     local clock legitimately disagrees with an older one's.
//
//   - Stats pool (per cohort, per granularity g): stats.Manager.Observe is
//     arrival-driven and query-independent, so one shared manager per
//     distinct granularity is fed exactly once per arrival and every query
//     loop of the cohort reads it (feedback.Config.Stats): N loops cost one
//     Observe per arrival. The pool keeps the delay history only once a
//     query that reads it (the model policy) joins; a cohort's membership
//     is frozen at its first push, so the choice precedes every arrival.
//
//   - Group (per cohort, per windows × K-class): queries share K-slack
//     buffers, Synchronizer, and windows only when their K trajectories are
//     provably identical:
//
//     nok      — K is constantly 0 for every such query;
//     static:K — K is constantly K;
//     maxk:fp  — decisions read only the shared stats manager, so equal
//     adaptation parameters (the fingerprint fp) give equal
//     decisions at equal boundaries;
//     model:fp:sig — the model policy also reads the query's own
//     productivity profile and result sizes, so only queries
//     with the IDENTICAL full condition (signature sig) are
//     provably K-equal.
//
//     Within a group the kernel (join.Multi) further groups members by
//     equi/band skeleton so queries sharing a probe prefix share candidate
//     enumeration; see the join.Multi package comment.
//
//   - Decision scope: never shared. Each query keeps its own feedback.Loop
//     (profiler, monitor, policy, boundary schedule, recall accounting), so
//     per-query recall SLOs and K decisions stay exactly standalone.
//
// # Boundary two-phase
//
// At an adaptation boundary every due member decides FIRST and the group
// applies the (provably equal) new K ONCE afterwards: applying K between
// two members' decisions could release buffered tuples whose productivity
// records would pollute the not-yet-decided member's profiler with events a
// standalone run would only see after its decision.
package multi

import (
	"fmt"
	"strings"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/syncer"
)

// QueryConfig registers one query with the engine. The zero Adapt/Policy
// values select the paper's model policy with default parameters, exactly
// as on a standalone pipeline.
type QueryConfig struct {
	// Cond is the query's join condition; Cond.M must equal the engine's
	// stream count. The engine seals it — mutating it after Add panics.
	Cond *join.Condition
	// Windows holds the per-stream window extents; length must equal the
	// engine's stream count.
	Windows []stream.Time
	// Adapt carries Γ, P, L, b, g and the selectivity strategy.
	Adapt adapt.Config
	// Policy selects the buffer-size policy; StaticK applies to PolicyStatic.
	Policy  plan.Policy
	StaticK stream.Time
	// Emit optionally receives every produced result of this query. Nil
	// keeps the query's residual class on the counting fast path.
	Emit join.EmitFunc
	// EmitCounts optionally receives per-arrival result counts.
	EmitCounts join.CountEmitFunc
	// OnAdapt optionally observes this query's adaptation steps.
	OnAdapt func(core.AdaptEvent)
}

// Query is one registered query's handle.
type Query struct {
	id     int64
	en     *Engine
	cfg    QueryConfig
	loop   *feedback.Loop
	model  *adapt.Model
	mem    *join.MultiMember
	cohort *cohort
	group  *group
	pool   *statsPool
	curK   stream.Time
	rm     bool
}

// ID returns the engine-assigned query id (registration order, from 0).
func (q *Query) ID() int64 { return q.id }

// Results returns the number of results the query has derived.
func (q *Query) Results() int64 { return q.mem.Results() }

// CurrentK returns the buffer size currently applied to the query's group.
func (q *Query) CurrentK() stream.Time { return q.curK }

// AvgK returns the query's average decided K, the paper's latency metric.
func (q *Query) AvgK() float64 { return q.loop.AvgK(0) }

// Adaptations returns the number of adaptation steps the query performed.
func (q *Query) Adaptations() int64 { return q.loop.Decisions() }

// RecallEstimate reports the query's run-level recall estimate.
func (q *Query) RecallEstimate() float64 { return q.loop.RecallEstimate() }

// Epoch returns the engine push count at which the query registered.
func (q *Query) Epoch() int64 { return q.cohort.epoch }

// Loop exposes the query's feedback loop (read-only use by tests).
func (q *Query) Loop() *feedback.Loop { return q.loop }

// SetEmit installs (or clears) the query's result sink after registration,
// mirroring the classic pipeline's late-sink path: results produced before
// the sink was installed were count-only. A non-nil sink disables the
// counting fast path for the query's residual class.
func (q *Query) SetEmit(f join.EmitFunc) {
	if q.rm {
		panic("multi: SetEmit on a removed query")
	}
	q.cfg.Emit = f
	q.group.op.SetEmit(q.mem, f)
}

// statsPool is one shared Statistics Manager, fed once per cohort arrival
// and read by every query loop of the cohort with matching granularity.
type statsPool struct {
	g    stream.Time
	st   *stats.Manager
	refs int
}

// group is one shared ingest lane: K-slack buffers, Synchronizer and the
// shared-window probe kernel, plus the member queries in registration order.
type group struct {
	key     string
	ks      []*kslack.Buffer
	sync    *syncer.Synchronizer
	op      *join.Multi
	queries []*Query
}

// cohort is one registration epoch's shared state.
type cohort struct {
	epoch  int64 // engine pushes completed when the cohort was created
	pools  []*statsPool
	groups []*group
}

// Engine is the shared-window multi-query engine. It is single-threaded and
// push-based like core.Pipeline; drive it from one goroutine.
type Engine struct {
	m       int
	pushes  int64
	nextID  int64
	cohorts []*cohort
	queries []*Query
	closed  bool

	// condToks tags Condition instances carrying opaque closure predicates:
	// closures cannot be compared structurally, so two queries share a
	// residual class only when they registered the SAME condition instance.
	condToks map[*join.Condition]string
}

// NewEngine creates an empty engine over m streams.
func NewEngine(m int) *Engine {
	if m < 2 {
		panic("multi: need at least 2 streams")
	}
	return &Engine{m: m, condToks: map[*join.Condition]string{}}
}

// M returns the number of input streams.
func (en *Engine) M() int { return en.m }

// Queries returns the number of currently registered queries.
func (en *Engine) Queries() int { return len(en.queries) }

// Pushed returns the number of arrivals consumed so far.
func (en *Engine) Pushed() int64 { return en.pushes }

// adaptFingerprint serializes the normalized adaptation parameters that
// determine a policy's boundary schedule and decision inputs.
func adaptFingerprint(a adapt.Config) string {
	return fmt.Sprintf("g%v;P%d;L%d;b%d;gr%d;st%d;nc%t",
		a.Gamma, a.P, a.L, a.B, a.G, a.Strategy, a.NoCalibration)
}

// kClass names the K-trajectory equivalence class of a query: two queries
// with equal kClass strings (and equal windows, and the same cohort) are
// guaranteed to decide the same K at every boundary.
func kClass(p plan.Policy, staticK stream.Time, a adapt.Config, resSig string) string {
	switch p {
	case plan.PolicyNoK:
		return "nok"
	case plan.PolicyStatic:
		return fmt.Sprintf("static:%d", staticK)
	case plan.PolicyMaxK:
		return "maxk:" + adaptFingerprint(a)
	default:
		return "model:" + adaptFingerprint(a) + ":" + resSig
	}
}

func windowsKey(ws []stream.Time) string {
	var b strings.Builder
	for i, w := range ws {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", w)
	}
	return b.String()
}

// tokenFor returns the opaque-closure token of a condition instance,
// assigning a fresh one on first use.
func (en *Engine) tokenFor(c *join.Condition) string {
	if t, ok := en.condToks[c]; ok {
		return t
	}
	t := fmt.Sprintf("c%d", len(en.condToks))
	en.condToks[c] = t
	return t
}

// Add registers a query and returns its handle. The query starts cold at
// the current input point: it joins (or creates) the cohort of the current
// push count, so it only ever shares ingest state with queries that have
// seen exactly the same arrivals.
func (en *Engine) Add(cfg QueryConfig) *Query {
	if en.closed {
		panic("multi: Add on a closed engine — the shared buffers are flushed and cannot be restarted; build a new engine")
	}
	if cfg.Cond == nil || cfg.Cond.M != en.m {
		panic("multi: condition arity must match the engine's stream count")
	}
	if len(cfg.Windows) != en.m {
		panic("multi: window count must match the engine's stream count")
	}
	for _, w := range cfg.Windows {
		if w <= 0 {
			panic("multi: window size must be positive")
		}
	}
	cfg.Adapt = cfg.Adapt.Normalize()

	resSig := join.ResidualSig(cfg.Cond, en.tokenFor(cfg.Cond))
	gKey := windowsKey(cfg.Windows) + "|" + kClass(cfg.Policy, cfg.StaticK, cfg.Adapt, resSig)
	pf, initialK := plan.PolicyFactoryFor(cfg.Policy, cfg.StaticK)

	co := en.cohortAt(en.pushes)
	pool := co.pool(en.m, cfg.Adapt.G)
	g := co.group(gKey, en.m, cfg.Windows, initialK)

	q := &Query{id: en.nextID, en: en, cfg: cfg, cohort: co, group: g, pool: pool, curK: initialK}
	en.nextID++
	q.loop = feedback.New(feedback.Config{
		Windows:  cfg.Windows,
		Adapt:    cfg.Adapt,
		Policy:   pf,
		InitialK: initialK,
		Stats:    pool.st,
	})
	q.model = q.loop.Model(0)
	if q.loop.ReadsHistory() {
		pool.st.SetHistory(true)
	}
	q.mem = g.op.Add(cfg.Cond, resSig, cfg.Emit, q.onResultCount, q.onProcessed)
	pool.refs++
	g.queries = append(g.queries, q)
	en.queries = append(en.queries, q)
	return q
}

// cohortAt returns the cohort registered at push count epoch, creating it if
// none exists. A cohort is only ever *joined* at its own epoch — the first
// push after creation freezes its membership windows (join.Multi asserts
// this independently).
func (en *Engine) cohortAt(epoch int64) *cohort {
	for _, c := range en.cohorts {
		if c.epoch == epoch {
			return c
		}
	}
	c := &cohort{epoch: epoch}
	en.cohorts = append(en.cohorts, c)
	return c
}

func (c *cohort) pool(m int, g stream.Time) *statsPool {
	for _, p := range c.pools {
		if p.g == g {
			return p
		}
	}
	p := &statsPool{g: g, st: stats.NewManager(m, g)}
	p.st.SetHistory(false) // until a query that reads it joins (Engine.Add)
	c.pools = append(c.pools, p)
	return p
}

func (c *cohort) group(key string, m int, windows []stream.Time, initialK stream.Time) *group {
	for _, g := range c.groups {
		if g.key == key {
			return g
		}
	}
	g := &group{key: key, op: join.NewMulti(windows)}
	g.sync = syncer.New(m, g.op.Process)
	g.ks = make([]*kslack.Buffer, m)
	for i := range g.ks {
		g.ks[i] = kslack.New(initialK, g.sync.Push)
	}
	c.groups = append(c.groups, g)
	return g
}

// onResultCount is the per-query count hook, mirroring the classic
// pipeline's onResultCount.
func (q *Query) onResultCount(ts stream.Time, n int64) {
	q.loop.ObserveResult(ts, n)
	if q.cfg.EmitCounts != nil {
		q.cfg.EmitCounts(ts, n)
	}
}

// onProcessed is the per-query productivity hook (line 11, Alg. 2).
func (q *Query) onProcessed(e *stream.Tuple, nCross, nOn int64, inOrder bool) {
	if inOrder {
		q.loop.RecordInOrder(0, e.Delay, nCross, nOn)
	} else {
		q.loop.RecordOutOfOrder(0, e.Delay)
	}
}

// Push feeds one raw arrival to every cohort and runs any adaptation steps
// whose interval boundaries the arrival crossed, per query. The first cohort
// consumes the caller's tuple exactly as a standalone pipeline would; each
// later cohort processes its own shallow clone (shared attributes), because
// the K-slack annotates Delay in place against the cohort's own local clock.
func (en *Engine) Push(e *stream.Tuple) {
	if en.closed {
		panic("multi: Push on a closed engine — Close flushed the buffers and a run cannot be restarted; build a new engine")
	}
	for ci, co := range en.cohorts {
		t := e
		if ci > 0 {
			t = &stream.Tuple{TS: e.TS, Seq: e.Seq, Src: e.Src, Attrs: e.Attrs}
		}
		for _, p := range co.pools {
			p.st.Observe(t)
		}
		for _, g := range co.groups {
			g.ks[t.Src].Push(t)
			g.boundary(t)
		}
	}
	en.pushes++
}

// pending is one due-but-unapplied boundary decision.
type pending struct {
	q        *Query
	at, newK stream.Time
}

// boundary runs the per-member boundary protocol for one arrival: every due
// member decides against the shared kernel's watermark, then the group
// applies the single (provably equal) new K, then the adaptation hooks fire
// — the same per-member event order as a standalone pipeline's adaptStep.
func (g *group) boundary(t *stream.Tuple) {
	var due []pending
	var outT stream.Time
	for _, q := range g.queries {
		now := q.loop.Observe(t)
		at, ok := q.loop.Boundary(now)
		if !ok {
			continue
		}
		if len(due) == 0 {
			outT = g.op.HighWatermark()
		}
		newK := q.loop.DecideAt(at, outT)[0]
		due = append(due, pending{q: q, at: at, newK: newK})
	}
	if len(due) == 0 {
		return
	}
	newK := due[0].newK
	for _, d := range due[1:] {
		if d.newK != newK {
			panic(fmt.Sprintf("multi: internal: divergent K decisions (%d vs %d) within shared group %q — the K-class invariant is broken", newK, d.newK, g.key))
		}
	}
	for _, k := range g.ks {
		k.SetK(newK)
	}
	for _, d := range due {
		prevK := d.q.curK
		d.q.curK = newK
		if d.q.cfg.OnAdapt != nil {
			ev := core.AdaptEvent{Now: d.at, OutT: outT, PrevK: prevK, NewK: newK}
			if d.q.model != nil {
				ev.GammaPrime = d.q.model.LastGammaPrime()
			}
			d.q.cfg.OnAdapt(ev)
		}
	}
}

// Remove detaches a query at the current input point: its residual class
// (and compiled residuals) are freed, its feedback loop is dropped, and the
// shared windows remain untouched for the surviving queries. The results the
// query produced so far are exactly those of a standalone run stopped — not
// finished — at the same point: Remove does NOT flush the group's buffers,
// because the surviving queries still need them.
func (en *Engine) Remove(q *Query) {
	if en.closed {
		panic("multi: Remove on a closed engine")
	}
	if q == nil || q.rm || q.en != en {
		panic("multi: Remove of an unknown or already-removed query")
	}
	q.rm = true
	q.group.op.Remove(q.mem)
	for i, other := range q.group.queries {
		if other == q {
			q.group.queries = append(q.group.queries[:i], q.group.queries[i+1:]...)
			break
		}
	}
	for i, other := range en.queries {
		if other == q {
			en.queries = append(en.queries[:i], en.queries[i+1:]...)
			break
		}
	}
	q.pool.refs--
	co := q.cohort
	if len(q.group.queries) == 0 {
		for i, g := range co.groups {
			if g == q.group {
				co.groups = append(co.groups[:i], co.groups[i+1:]...)
				break
			}
		}
	}
	if q.pool.refs == 0 {
		for i, p := range co.pools {
			if p == q.pool {
				co.pools = append(co.pools[:i], co.pools[i+1:]...)
				break
			}
		}
	}
	if len(co.groups) == 0 && len(co.pools) == 0 {
		for i, c := range en.cohorts {
			if c == co {
				en.cohorts = append(en.cohorts[:i], en.cohorts[i+1:]...)
				break
			}
		}
	}
}

// Close flushes every group's K-slack buffers and Synchronizer at end of
// input so every remaining tuple reaches the shared kernels — the exact
// Finish sequence of the classic pipeline, applied once per group instead
// of once per query. Closing twice panics, as does pushing afterwards.
func (en *Engine) Close() {
	if en.closed {
		panic("multi: Close on a closed engine — the run is already flushed and cannot be restarted")
	}
	en.closed = true
	for _, co := range en.cohorts {
		for _, g := range co.groups {
			for _, k := range g.ks {
				k.Flush()
			}
			for i := 0; i < en.m; i++ {
				g.sync.Close(i)
			}
		}
	}
}

// GroupInfo describes one shared ingest lane for explain output.
type GroupInfo struct {
	Epoch   int64
	Key     string
	Queries []int64
	Classes []join.MultiClassInfo
}

// Groups lists the engine's shared ingest lanes with their probe classes,
// in cohort and registration order.
func (en *Engine) Groups() []GroupInfo {
	var out []GroupInfo
	for _, co := range en.cohorts {
		for _, g := range co.groups {
			gi := GroupInfo{Epoch: co.epoch, Key: g.key, Classes: g.op.ClassInfos()}
			for _, q := range g.queries {
				gi.Queries = append(gi.Queries, q.id)
			}
			out = append(out, gi)
		}
	}
	return out
}
