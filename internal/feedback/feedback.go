// Package feedback is the quality-driven feedback loop of Fig. 2, extracted
// from the MJoin pipeline into a runtime any executor can drive: it owns the
// Statistics Manager (ADWIN-sized delay histories over the raw inputs), the
// Result-Size Monitor over the final output, one Tuple-Productivity Profiler
// and one Buffer-Size Manager policy per *decision scope*, and the
// adaptation-interval boundary schedule.
//
// A decision scope is one "choose a K" problem. The single MJoin operator
// has exactly one scope — the global Same-K of Theorem 1 — while the
// left-deep binary tree of Sec. V gives every binary stage its own scope:
// stage j decides K_j from the delay profiles of its two inputs (the merged
// left subtree streams and the raw right stream) and its stage-local
// selectivity snapshot, against an instant requirement Γ′ derived once at
// the root scope, whose monitor window sees the final results.
//
// The driving protocol is narrow and push-based, mirroring what
// core.Pipeline did inline before the extraction:
//
//	now := loop.Observe(e)            // every raw arrival, in arrival order
//	loop.RecordInOrder(scope, …)      // executor productivity hooks
//	loop.ObserveResult(ts, n)         // final results → Result-Size Monitor
//	if at, ok := loop.Boundary(now); ok {
//		ks := loop.DecideAt(at, outT) // one K per scope
//		… apply ks to the executor's K-slack buffers …
//	}
//
// Statistics observation can run asynchronously (Async): arrivals are
// batched to a feeder goroutine and barrier-synced before every decision,
// which is how the sharded pipeline keeps Observe off its ingest thread.
package feedback

import (
	"math"

	"repro/internal/adapt"
	"repro/internal/monitor"
	"repro/internal/profiler"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Scope declares one decision scope: Groups[i] lists the raw streams merged
// into model input i, Windows[i] the window extent of that input. The global
// Same-K scope has one singleton group per raw stream; a binary tree stage
// has two groups — the left subtree's streams and the right raw stream.
type Scope struct {
	Groups  [][]int
	Windows []stream.Time
}

// GlobalScope returns the Same-K decision scope over all m raw streams.
func GlobalScope(windows []stream.Time) Scope {
	groups := make([][]int, len(windows))
	for i := range groups {
		groups[i] = []int{i}
	}
	return Scope{Groups: groups, Windows: windows}
}

// Env is what a PolicyFactory gets to build one scope's policy: the scope's
// merged statistics view, the shared raw managers, and the scope windows.
type Env struct {
	Scope   int
	Source  adapt.Source
	Stats   *stats.Manager
	Monitor *monitor.Monitor
	Adapt   adapt.Config
	Windows []stream.Time
}

// PolicyFactory builds the buffer-size policy of one decision scope.
type PolicyFactory func(Env) adapt.Policy

// ModelPolicy returns the paper's model-based quality-driven policy, built
// on the scope's (possibly group-merged) statistics view.
func ModelPolicy() PolicyFactory {
	return func(env Env) adapt.Policy {
		return adapt.NewModel(env.Adapt, env.Windows, env.Source, env.Monitor)
	}
}

// NoKPolicy returns the No-K-slack baseline.
func NoKPolicy() PolicyFactory {
	return func(Env) adapt.Policy { return adapt.NoK{} }
}

// MaxKPolicy returns the Max-K-slack baseline.
func MaxKPolicy() PolicyFactory {
	return func(env Env) adapt.Policy { return adapt.MaxK{Stats: env.Stats} }
}

// StaticPolicy returns a fixed-K policy.
func StaticPolicy(k stream.Time) PolicyFactory {
	return func(Env) adapt.Policy { return adapt.Static{K: k} }
}

// Config assembles a feedback loop.
type Config struct {
	// Windows holds the per-raw-stream window sizes W_i; its length fixes m.
	Windows []stream.Time
	// Adapt carries Γ, P, L, b, g and the selectivity strategy.
	Adapt adapt.Config
	// Policy builds each scope's buffer-size policy; default ModelPolicy.
	Policy PolicyFactory
	// StatsOpts customizes the Statistics Manager (fixed history ablation…).
	StatsOpts []stats.Option
	// Scopes lists the decision scopes; default is the single global scope.
	// The LAST scope is the root: its profiler snapshot estimates the true
	// size of the *final* output, feeding the monitor ring and, under
	// SharedRequirement, the Γ′ derivation every scope decides against —
	// order the scopes so the output-producing one comes last (a left-deep
	// tree's stage order already does).
	Scopes []Scope
	// SharedRequirement derives Γ′ once at the root scope and passes it to
	// every scope's model (per-stage mode). When false each scope's policy
	// derives its own requirement — the single-scope behaviour.
	SharedRequirement bool
	// ScopeWeights assigns each scope its exponent w_i in the shared-
	// requirement decomposition: scope i decides against Γ′^w_i, so the
	// composed recall ∏_i Γ′^w_i meets Γ′ whenever the weights sum to 1. A
	// zero weight marks a scope that governs no raw-input buffer (an inner
	// stage of a bushy tree): its decision is skipped and its K pinned to 0,
	// since no buffer would apply it. Length must match Scopes; required
	// under SharedRequirement and only meaningful there.
	ScopeWeights []float64
	// InitialK is the buffer size reported before the first decision.
	InitialK stream.Time
	// Async moves stats.Observe onto a feeder goroutine, batched by
	// AsyncBatch (0 = default); Sync() barriers before every decision.
	Async      bool
	AsyncBatch int
	// Stats injects an externally owned Statistics Manager instead of
	// creating one. The multi-query engine shares one manager — fed exactly
	// once per raw arrival — across every query loop registered at the same
	// epoch with the same granularity, so N loops cost one Observe per
	// arrival instead of N. The owner is then responsible for feeding every
	// arrival to the manager; Observe on the loop becomes a pure read of the
	// logical now and never double-feeds. Incompatible with Async (the async
	// feeder would race the external owner's feeds).
	Stats *stats.Manager
}

// scopeState is one decision scope's adaptive machinery.
type scopeState struct {
	prof   *profiler.Profiler
	policy adapt.Policy
	model  *adapt.Model // non-nil when policy is the model policy
	sumK   float64
}

// Loop is the extracted feedback runtime.
type Loop struct {
	cfg    Config
	m      int
	stats  *stats.Manager
	mon    *monitor.Monitor
	scopes []*scopeState
	root   int

	feeder   *feeder
	extStats bool // cfg.Stats injected: the owner feeds it, Observe only reads
	maxTS    stream.Time

	started bool
	nextAt  stream.Time
	ks      []stream.Time
	snaps   []*profiler.Snapshot // per-decision scratch
	n       int64
	gammaP  float64 // the root-derived Γ′ of the last shared-requirement decision

	// Cumulative recall accounting across the whole run (not windowed like
	// the monitor): produced final results versus the summed per-interval
	// true-size estimates. Their ratio is the run-level recall estimate that
	// load shedding must keep honest — RecordShed feeds the root profiler,
	// whose mean-charge raises cumTrue without raising cumProduced.
	cumProduced int64
	cumTrue     float64
}

// New assembles a loop from cfg.
func New(cfg Config) *Loop {
	cfg.Adapt = cfg.Adapt.Normalize()
	if cfg.Policy == nil {
		cfg.Policy = ModelPolicy()
	}
	if len(cfg.Scopes) == 0 {
		cfg.Scopes = []Scope{GlobalScope(cfg.Windows)}
	}
	if (cfg.SharedRequirement || cfg.ScopeWeights != nil) && len(cfg.ScopeWeights) != len(cfg.Scopes) {
		panic("feedback: ScopeWeights must carry one entry per scope, and SharedRequirement requires them — the weights are how the shared Γ′ decomposes across the scopes (DESIGN §8)")
	}
	m := len(cfg.Windows)
	l := &Loop{cfg: cfg, m: m, root: len(cfg.Scopes) - 1}
	if cfg.Stats != nil {
		if cfg.Async {
			panic("feedback: Config.Stats cannot be combined with Async — the async feeder would race the external manager's owner")
		}
		l.stats = cfg.Stats
		l.extStats = true
	} else {
		l.stats = stats.NewManager(m, cfg.Adapt.G, cfg.StatsOpts...)
	}
	intervals := int((cfg.Adapt.P - cfg.Adapt.L) / cfg.Adapt.L)
	l.mon = monitor.New(cfg.Adapt.P-cfg.Adapt.L, intervals)

	l.scopes = make([]*scopeState, len(cfg.Scopes))
	l.ks = make([]stream.Time, len(cfg.Scopes))
	l.snaps = make([]*profiler.Snapshot, len(cfg.Scopes))
	for i, sc := range cfg.Scopes {
		env := Env{
			Scope:   i,
			Source:  newScopeSource(l.stats, sc.Groups),
			Stats:   l.stats,
			Monitor: l.mon,
			Adapt:   cfg.Adapt,
			Windows: sc.Windows,
		}
		st := &scopeState{prof: profiler.New(cfg.Adapt.G), policy: cfg.Policy(env)}
		if mdl, ok := st.policy.(*adapt.Model); ok {
			st.model = mdl
		}
		l.scopes[i] = st
		l.ks[i] = cfg.InitialK
	}
	if cfg.Async {
		l.feeder = newFeeder(l.stats.Observe, cfg.AsyncBatch)
	}
	return l
}

// Observe records one raw arrival with the Statistics Manager (directly, or
// via the async feeder) and returns the logical now — the maximum timestamp
// seen — that drives the boundary schedule.
func (l *Loop) Observe(e *stream.Tuple) stream.Time {
	if l.extStats {
		// The external owner already fed this arrival (exactly once, shared
		// across loops); only read the logical now off the shared manager.
		return l.stats.GlobalT()
	}
	if l.feeder != nil {
		l.feeder.add(e)
		if e.TS > l.maxTS {
			l.maxTS = e.TS
		}
		return l.maxTS
	}
	l.stats.Observe(e)
	return l.stats.GlobalT()
}

// ObserveResult feeds n produced final results at timestamp ts to the
// Result-Size Monitor.
func (l *Loop) ObserveResult(ts stream.Time, n int64) {
	l.mon.AddResults(ts, n)
	if n > 0 {
		l.cumProduced += n
	}
}

// RecordInOrder feeds one in-order productivity record (delay annotation,
// cross size n×(e), derived results n^on(e)) to the scope's profiler.
func (l *Loop) RecordInOrder(scope int, delay stream.Time, nCross, nOn int64) {
	l.scopes[scope].prof.RecordInOrder(delay, nCross, nOn)
}

// RecordOutOfOrder feeds one out-of-order arrival to the scope's profiler.
func (l *Loop) RecordOutOfOrder(scope int, delay stream.Time) {
	l.scopes[scope].prof.RecordOutOfOrder(delay)
}

// Boundary advances the adaptation-interval schedule to the logical now and
// reports whether a decision is due, and at which boundary time. The first
// observation only anchors the schedule. When a sparse arrival crosses
// several interval boundaries at once, ONE decision is due, anchored at the
// last crossed boundary: re-deciding per boundary would consume the profiler
// snapshot on the first step and push zero true-size estimates into the
// monitor ring for the rest, distorting Γ′ (DESIGN.md §4).
func (l *Loop) Boundary(now stream.Time) (at stream.Time, ok bool) {
	if !l.started {
		l.started = true
		l.nextAt = now + l.cfg.Adapt.L
		return 0, false
	}
	if now < l.nextAt {
		return 0, false
	}
	at = l.nextAt + l.cfg.Adapt.L*((now-l.nextAt)/l.cfg.Adapt.L)
	l.nextAt = at + l.cfg.Adapt.L
	return at, true
}

// DecideAt runs one Buffer-Size Manager decision at boundary time at and
// returns the chosen K per scope (the slice is reused across calls; copy it
// to retain). outT is the executor's output watermark: result-size
// accounting anchors there rather than at the raw input time, because under
// a buffer of K time units the output lags the input by K and anchoring at
// the input would misread buffered-but-unproduced results as losses.
//
// Callers on an async loop must call Sync() first (and quiesce their own
// deferred feeds) so the decision sees a consistent interval.
func (l *Loop) DecideAt(at, outT stream.Time) []stream.Time {
	l.mon.Advance(outT)
	for i, sc := range l.scopes {
		l.snaps[i] = sc.prof.Snapshot()
		// Reset before applying the new K: tuples released eagerly by a K
		// shrink are accounted to the next interval.
		sc.prof.Reset()
	}
	rootSnap := l.snaps[l.root]
	if l.cfg.SharedRequirement && l.scopes[l.root].model != nil {
		gp := l.scopes[l.root].model.InstantRequirement(rootSnap)
		l.gammaP = gp
		// A final result must survive every stage, and stage losses are
		// (approximately) independent, so requirements compose
		// multiplicatively: each scope meets Γ′^w_i and the product meets
		// Γ′ when Σ w_i = 1. Trees charge each stage the Γ′^(1/m) factors of
		// the raw leaves its buffers govern (DESIGN §8). Nearly-ordered
		// stages reach their tightened target almost for free; deciding
		// every stage against the raw Γ′ instead would compound to ≈ Γ′ⁿ
		// end to end.
		for i, sc := range l.scopes {
			w := l.cfg.ScopeWeights[i]
			switch {
			case w == 0:
				// No raw buffer applies this scope's K; deciding would only
				// pollute the AvgK metric with a meaningless search result.
				l.ks[i] = 0
			case sc.model != nil:
				l.ks[i] = sc.model.DecideShared(at, l.snaps[i], math.Pow(gp, w))
			default:
				l.ks[i] = sc.policy.Decide(at, l.snaps[i])
			}
		}
	} else {
		for i, sc := range l.scopes {
			l.ks[i] = sc.policy.Decide(at, l.snaps[i])
		}
	}
	for i, sc := range l.scopes {
		sc.sumK += float64(l.ks[i])
		l.snaps[i] = nil
	}
	l.n++
	l.mon.PushTrueEstimate(rootSnap.TrueResults())
	l.cumTrue += rootSnap.TrueResults()
	return l.ks
}

// Sync barriers the async feeder: afterwards the Statistics Manager is
// consistent with every Observe so far. No-op on a synchronous loop.
func (l *Loop) Sync() {
	if l.feeder != nil {
		l.feeder.sync()
	}
}

// Close drains and stops the async feeder. No-op on a synchronous loop.
func (l *Loop) Close() {
	if l.feeder != nil {
		l.feeder.close()
		l.feeder = nil
	}
}

// GammaPrime returns the instant requirement Γ′ the last decision derived at
// the root scope under SharedRequirement — the target the per-scope
// requirements Γ′^w_i decompose. It is 0 before the first decision, without
// SharedRequirement, and when the root scope runs no model policy.
func (l *Loop) GammaPrime() float64 { return l.gammaP }

// Scopes returns the number of decision scopes.
func (l *Loop) Scopes() int { return len(l.scopes) }

// Ks returns the most recent decision (InitialK before the first); the slice
// is live, copy to retain.
func (l *Loop) Ks() []stream.Time { return l.ks }

// K returns scope i's current buffer size.
func (l *Loop) K(i int) stream.Time { return l.ks[i] }

// AvgK returns scope i's average decided K over all decisions, the paper's
// result-latency metric.
func (l *Loop) AvgK(i int) float64 {
	if l.n == 0 {
		return float64(l.ks[i])
	}
	return l.scopes[i].sumK / float64(l.n)
}

// Decisions returns the number of adaptation steps performed.
func (l *Loop) Decisions() int64 { return l.n }

// Stats exposes the Statistics Manager (read-only use by callers).
func (l *Loop) Stats() *stats.Manager { return l.stats }

// Monitor exposes the Result-Size Monitor.
func (l *Loop) Monitor() *monitor.Monitor { return l.mon }

// Model returns scope i's model policy when in use, else nil. It exposes
// the Fig. 11 adaptation-time instrumentation and Γ′.
func (l *Loop) Model(i int) *adapt.Model { return l.scopes[i].model }
