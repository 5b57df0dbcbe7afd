// Package qdhj is a quality-driven disorder handling library for m-way
// sliding window stream joins (MSWJ), reproducing Ji et al., "Quality-Driven
// Disorder Handling for M-way Sliding Window Stream Joins", ICDE 2016.
//
// An MSWJ over out-of-order, unsynchronized streams faces an inevitable
// tradeoff between result latency and result quality (recall of join
// results). This library lets the application state the tradeoff from the
// quality side: specify a minimum recall Γ over a measurement period P, and
// the framework continuously sizes its input-sorting buffers as small as the
// requirement allows.
//
// # Quick start
//
//	cond := qdhj.EquiChain(2, 0) // S0.attr0 == S1.attr0
//	j := qdhj.NewJoin(cond, []qdhj.Time{5 * qdhj.Second, 5 * qdhj.Second},
//		qdhj.Options{Gamma: 0.95},
//		qdhj.WithResults(func(r qdhj.Result) { fmt.Println(r.Tuples) }),
//	)
//	for t := range arrivals {
//		j.Push(t)
//	}
//	j.Close()
//
// Timestamps are logical milliseconds assigned at the data sources; the
// framework is driven entirely by tuple arrival, never by the wall clock.
package qdhj

import (
	"fmt"
	"math"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/plan"
	"repro/internal/stream"
)

// Time is a logical timestamp or duration in milliseconds.
type Time = stream.Time

// Re-exported logical durations.
const (
	Millisecond = stream.Millisecond
	Second      = stream.Second
	Minute      = stream.Minute
)

// Tuple is a stream element; see stream.Tuple for field semantics.
type Tuple = stream.Tuple

// Result is one join result (one tuple per input stream).
type Result = stream.Result

// Condition is a conjunctive join condition over m streams.
type Condition = join.Condition

// Cross returns the always-true condition over m streams (cross join).
func Cross(m int) *Condition { return join.Cross(m) }

// EquiChain returns S0.attr = S1.attr = … = S(m−1).attr.
func EquiChain(m, attr int) *Condition { return join.EquiChain(m, attr) }

// Star returns a star equi-join centered on stream 0.
func Star(m int, centerAttrs, spokeAttrs []int) *Condition {
	return join.Star(m, centerAttrs, spokeAttrs)
}

// Strategy selects the selectivity model of the buffer-size adaptation.
type Strategy = adapt.Strategy

// Selectivity strategies (Sec. IV-B of the paper). NonEqSel learns the
// delay–productivity correlation at runtime and is the recommended default.
const (
	NonEqSel = adapt.NonEqSel
	EqSel    = adapt.EqSel
)

// Policy names the buffer-sizing policy of a join.
type Policy int

// Available policies.
const (
	// QualityDriven is the paper's model-based adaptive policy: minimal
	// buffers honoring the recall requirement Γ.
	QualityDriven Policy = iota
	// MaxSlack sizes buffers to the maximum delay observed so far
	// (state-of-the-art baseline; maximal quality, maximal latency).
	MaxSlack
	// NoSlack disables input sorting (minimal latency, degraded quality).
	NoSlack
	// StaticSlack applies the fixed buffer size Options.StaticK.
	StaticSlack
)

// Options configures the disorder handling of a join. The zero value gives
// the paper's defaults: quality-driven policy with Γ = 0.95, P = 1 min,
// L = 1 s, b = g = 10 ms, NonEqSel.
type Options struct {
	// Gamma is the required minimum recall γ(P) ∈ (0, 1]. 0 means "use the
	// default 0.95"; any other value outside (0, 1], NaN included, panics
	// at construction.
	Gamma float64
	// Period is the result-quality measurement period P.
	Period Time
	// Interval is the adaptation interval L (≤ P).
	Interval Time
	// BasicWindow is the model's window segmentation unit b.
	BasicWindow Time
	// Granularity is the K-search granularity g.
	Granularity Time
	// Strategy selects EqSel or NonEqSel (default NonEqSel).
	Strategy Strategy
	// Search selects the Alg. 3 k* search: LinearSearch (the paper) or
	// BinarySearch (this library's extension of the paper's future work).
	Search Search
	// Policy selects the buffer-sizing policy (default QualityDriven).
	Policy Policy
	// StaticK is the buffer size used by the StaticSlack policy.
	StaticK Time
}

// Search selects the buffer-size search algorithm.
type Search = adapt.Search

// Search algorithms for the model-based policy.
const (
	LinearSearch = adapt.LinearSearch
	BinarySearch = adapt.BinarySearch
)

// JoinOption attaches optional sinks and hooks to a join.
type JoinOption func(*joinOpts)

type joinOpts struct {
	emit       join.EmitFunc
	counts     join.CountEmitFunc
	onAdapt    func(AdaptEvent)
	shards     int
	remote     []string
	frameBatch int
	plan       *Plan
	autoPlan   bool
	supervised bool
	scf        plan.SuperviseConfig
	replan     *ReplanOptions
}

// The constructors that take JoinOptions.
const (
	hostNewJoin  = "NewJoin"
	hostRestore  = "Restore"
	hostMultiAdd = "MultiJoin.Add"
)

// collect applies the options of one host call and validates the outcome.
func collect(host string, jopts []JoinOption) *joinOpts {
	jo := new(joinOpts)
	for _, o := range jopts {
		o(jo)
	}
	jo.validate(host)
	return jo
}

// validate panics on an option its host would silently ignore and on two
// options that do not combine, so every such mistake surfaces where the
// join is constructed and not as a no-op or as a panic from a later Push.
func (o *joinOpts) validate(host string) {
	if host == hostMultiAdd {
		switch {
		case o.shards != 0:
			panic("qdhj: WithShards is not supported on a MultiJoin — sharding and multi-query sharing are distinct deployment shapes; use one Join per shard group or a MultiJoin, not both")
		case o.plan != nil || o.autoPlan:
			panic("qdhj: WithPlan/WithAutoPlan are not supported on a MultiJoin — the multi-query engine is its own deployment shape")
		case o.supervised:
			panic("qdhj: WithSupervision is not supported on a MultiJoin")
		case o.replan != nil:
			panic("qdhj: WithOnlineReplan is not supported on a MultiJoin")
		case len(o.remote) > 0:
			panic("qdhj: WithRemoteWorkers is not supported on a MultiJoin — the shared-window engine probes in this process and would never dial the workers")
		case o.frameBatch != 0:
			panic("qdhj: WithFrameBatch is not supported on a MultiJoin — there is no sharded hand-off or network frame for it to size")
		}
		return
	}
	if o.plan != nil {
		switch _, flat := o.plan.g.FlatShards(); {
		case o.shards != 0:
			panic("qdhj: WithPlan cannot be combined with WithShards — the plan fixes the shard count; write it into the plan (ParsePlan \"shard:N\", \"tree-shard:N\" or an xN suffix)")
		case o.autoPlan:
			panic("qdhj: WithPlan cannot be combined with WithAutoPlan — one deploys the given plan, the other picks its own; pass one of them")
		case len(o.remote) > 0 && !flat:
			panic("qdhj: WithPlan with a tree shape cannot be combined with WithRemoteWorkers — remote workers execute only flat shapes, since tree stages own window state the driver cannot retain for checkpointing; plan a flat or sharded-flat shape")
		}
	}
	if o.replan == nil {
		return
	}
	switch {
	case host == hostRestore:
		panic("qdhj: WithOnlineReplan is not supported on Restore — the restored join would run without the re-planner; restore the snapshot's own shape, or start a fresh NewJoin with WithOnlineReplan")
	case len(o.remote) > 0:
		panic("qdhj: WithOnlineReplan cannot be combined with WithRemoteWorkers — remote workers pin the sharded flat shape, and a live migration would change it")
	}
}

// shell returns the runtime-shell config the options ask for, and false
// when they ask for none: a plain join runs its executor bare.
func (o *joinOpts) shell() (plan.SuperviseConfig, bool) {
	scf := o.scf
	scf.Unsupervised = !o.supervised
	if o.replan != nil {
		scf.Replan = newController(o.replan)
	}
	return scf, o.supervised || o.replan != nil
}

// AdaptEvent reports one buffer-size adaptation step.
type AdaptEvent = core.AdaptEvent

// WithResults registers a callback receiving every produced join result.
// Registering it disables the operator's counting-only fast path, so omit it
// when only result counts are needed.
//
// The Result is the callback's to keep: its Tuples slice is never reused.
// The slice is capacity-clipped (an append copies) and may share a backing
// block of at most 512 bytes with neighbouring results, so retaining one
// result keeps that block — up to 64 tuple pointers — reachable.
func WithResults(f func(Result)) JoinOption {
	return func(o *joinOpts) { o.emit = join.EmitFunc(f) }
}

// WithResultCounts registers a cheap callback receiving, per in-order
// arrival, the result timestamp and result count.
func WithResultCounts(f func(ts Time, n int64)) JoinOption {
	return func(o *joinOpts) { o.counts = join.CountEmitFunc(f) }
}

// WithAdaptHook registers a callback observing every adaptation step.
func WithAdaptHook(f func(AdaptEvent)) JoinOption {
	return func(o *joinOpts) { o.onAdapt = f }
}

// WithShards runs the join operator as n key-partitioned shards on n
// goroutines. The planner picks the partition key from the condition — an
// equi key class is hash-partitioned, a band key class is range-
// partitioned with overlap replication, and purely generic conditions fall
// back to partitioning stream 0 and broadcasting the rest. Disorder
// handling (K-slack, Synchronizer) and the quality-driven feedback loop
// stay global: one Same-K decision governs all shards, and per-shard
// result and statistics streams merge deterministically at every
// adaptation-interval boundary, so a sharded run produces exactly the
// result multiset of the single-shard run.
//
// Result sinks (WithResults, WithResultCounts, RunChannel) consequently
// see results in interval-sized batches rather than per arrival. n ≤ 1
// selects the classic single-threaded path; n < 0 panics.
func WithShards(n int) JoinOption {
	if n < 0 {
		panic("qdhj: WithShards needs n ≥ 0 shards")
	}
	return func(o *joinOpts) { o.shards = n }
}

// WithRemoteWorkers runs the join's partition workers as external qdhjd
// processes, one worker per address, connected over TCP. It is the
// networked form of WithShards: the partition routing, disorder handling
// (K-slack, Synchronizer) and the quality-driven feedback loop stay in
// this process, and only the per-shard join operators move out — so
// results, result counts and the K trajectory are bit-for-bit those of
// the in-process run, for any worker count and any frame batch size.
//
// Start workers with `qdhjd -listen addr` (cmd/qdhjd) before the first
// Push; the session dials lazily. The join condition must be expressible
// on the wire: equi, band, and WhereExpr predicates deploy; opaque Where
// closures cannot cross a process boundary and panic at construction.
// Combine with WithSupervision to survive worker loss: a failed worker
// surfaces as the same typed error an in-process shard crash does, and
// the supervisor restores the deployment — including freshly restarted
// workers — from its checkpoint. See WithFrameBatch for the transport
// batching knob.
func WithRemoteWorkers(addrs ...string) JoinOption {
	if len(addrs) == 0 {
		panic("qdhj: WithRemoteWorkers needs at least one worker address")
	}
	return func(o *joinOpts) { o.remote = append([]string(nil), addrs...) }
}

// WithFrameBatch sets how many tuple messages share one network frame (and
// one write syscall) on remote deployments: larger batches amortize
// framing and syscall cost — throughput scales several-fold between
// per-tuple framing (1) and 64–256 — while batch cuts remain a pure
// function of the input, so results are identical at every setting.
// Default 128. On in-process sharded deployments the same value tunes the
// inter-thread hand-off batch. n ≤ 0 selects the default; n = 1 means
// per-tuple framing.
func WithFrameBatch(n int) JoinOption {
	return func(o *joinOpts) { o.frameBatch = n }
}

// Join is an m-way sliding window join with quality-driven disorder
// handling. It is not safe for concurrent use; feed it from one goroutine or
// use RunChannel.
//
// Every Join executes behind the deployment-plan seam: the classic flat
// operator by default, the key-partitioned shards under WithShards, or any
// planned shape — including bushy trees and stage-wise sharding — under
// WithPlan/WithAutoPlan.
type Join struct {
	g   *plan.Graph     // the initial deployment
	cfg plan.ExecConfig // as handed to the builder; user callbacks intact
	ex  plan.Executor   // rt when set, the bare executor otherwise
	// rt is the runtime shell under WithSupervision, WithOnlineReplan or an
	// option implying one of them; nil on plain joins.
	rt     *plan.Supervised
	closed bool
	// hasSink records whether a results sink is installed — by WithResults
	// at construction or by a RunChannel call; RunChannel refuses to
	// silently replace it.
	hasSink bool
}

// defaultGamma is the recall requirement Options.Gamma = 0 selects.
const defaultGamma = 0.95

// gamma returns the recall requirement the options ask for. It panics on a
// Γ outside (0, 1] other than the default's 0: the feedback loop would not
// refuse one, it would run NaN as almost Γ = 1 and a negative Γ as
// No-K-slack.
func (opt Options) gamma() float64 {
	switch g := opt.Gamma; {
	case g == 0:
		return defaultGamma
	case !(g > 0 && g <= 1):
		panic(fmt.Sprintf("qdhj: Options.Gamma = %v is not a recall requirement in (0, 1]; 0 selects the default %v", g, defaultGamma))
	}
	return opt.Gamma
}

// execConfig maps the public Options (plus the option-provided callbacks)
// onto the planner's executor config.
func execConfig(opt Options, jo *joinOpts) plan.ExecConfig {
	cfg := plan.ExecConfig{
		Adapt: adapt.Config{
			Gamma:    opt.gamma(),
			P:        opt.Period,
			L:        opt.Interval,
			B:        opt.BasicWindow,
			G:        opt.Granularity,
			Strategy: opt.Strategy,
			Search:   opt.Search,
		},
		StaticK:    opt.StaticK,
		Emit:       jo.emit,
		EmitCounts: jo.counts,
		OnAdapt:    jo.onAdapt,
		Remote:     jo.remote,
		BatchSize:  jo.frameBatch,
	}
	switch opt.Policy {
	case MaxSlack:
		cfg.Policy = plan.PolicyMaxK
	case NoSlack:
		cfg.Policy = plan.PolicyNoK
	case StaticSlack:
		cfg.Policy = plan.PolicyStatic
	default:
		cfg.Policy = plan.PolicyModel
	}
	return cfg
}

// NewJoin creates a join over len(windows) streams. windows[i] is the
// sliding window extent W_i of stream i; cond.M must equal len(windows).
func NewJoin(cond *Condition, windows []Time, opt Options, jopts ...JoinOption) *Join {
	jo := collect(hostNewJoin, jopts)
	cfg := execConfig(opt, jo)
	g := jo.graphFor(cond, windows)
	j := &Join{g: g, cfg: cfg, hasSink: jo.emit != nil}
	if scf, ok := jo.shell(); ok {
		j.rt = plan.NewSupervised(g, cfg, scf)
		j.ex = j.rt
	} else {
		j.ex = plan.Build(g, cfg)
	}
	return j
}

// Push feeds one arriving tuple. Tuples carry their source stream in
// Tuple.Src and their application timestamp in Tuple.TS. Under
// WithOnlineReplan, Push additionally runs the re-planning loop: the tuple
// is recorded in the replay log, and the executor between two pushes is a
// valid migration point, so a Push may return having migrated the join to a
// different deployment shape.
func (j *Join) Push(t *Tuple) { j.ex.Push(t) }

// Close flushes all buffers at end of input. The join must not be pushed to
// afterwards. On a supervised join whose retry budget is already spent,
// Close is a no-op — check Err.
func (j *Join) Close() {
	j.closed = true
	j.ex.Finish()
}

// Results returns the number of join results produced so far. Under
// WithOnlineReplan it counts results DELIVERED through the exactly-once
// gate — the counter that stays continuous across migrations.
func (j *Join) Results() int64 { return j.ex.Results() }

// CurrentK returns the input-sorting buffer size currently applied; it is
// the latency bound disorder handling adds to results. On tree-shaped
// deployments — where every stage decides its own K — it reports the
// largest per-stage buffer; CurrentKs lists them all.
func (j *Join) CurrentK() Time {
	var max Time
	for _, k := range j.ex.CurrentKs() {
		if k > max {
			max = k
		}
	}
	return max
}

// CurrentKs returns the most recent buffer-size decision, one entry per
// decision scope: a single entry on flat deployments, one per binary stage
// on tree-shaped plans. The slice is live; copy to retain.
func (j *Join) CurrentKs() []Time { return j.ex.CurrentKs() }

// AvgK returns the average buffer size over all adaptation intervals (of
// the largest per-stage buffer on tree-shaped deployments).
func (j *Join) AvgK() float64 { return j.ex.AvgK() }

// Adaptations returns how many buffer-size adaptation steps have run.
func (j *Join) Adaptations() int64 { return j.ex.Adaptations() }

// RunChannel consumes tuples from in on a dedicated goroutine and delivers
// results on the returned channel. The channel closes only after the input
// channel closes AND all disorder-handling buffers have flushed, so every
// result — including those released by the final flush — is delivered
// before the close.
//
// The join must have been created with no WithResults sink and RunChannel
// must be called at most once: it installs its own emit callback, and
// silently replacing an existing sink — the construction-time callback or
// a previous RunChannel's channel — would leave that sink receiving
// nothing. Both conflicts panic.
func (j *Join) RunChannel(in <-chan *Tuple) <-chan Result {
	if j.hasSink {
		panic("qdhj: RunChannel on a Join that already has a results sink (WithResults at construction, or an earlier RunChannel) — results would silently stop reaching it; use one sink per Join")
	}
	j.hasSink = true
	out := make(chan Result, 256)
	j.ex.SetEmit(func(r Result) { out <- r })
	go func() {
		defer close(out)
		for t := range in {
			j.Push(t)
		}
		j.ex.Finish()
	}()
	return out
}

// StreamStats is the read-only per-stream view of the Statistics Manager.
type StreamStats struct {
	// Rate is the average arrival rate in tuples per millisecond.
	Rate float64
	// HistoryLen is the current ADWIN-sized delay-history length R^stat.
	HistoryLen int
	// MaxDelayRecent is the largest tuple delay within the recent history.
	MaxDelayRecent Time
	// KSync is the Synchronizer's implicit buffer estimate (Prop. 1).
	KSync Time
	// LocalT is the stream's local logical clock iT.
	LocalT Time
}

// EdgeStats is one measured per-predicate selectivity: the estimated
// fraction of candidate pairs crossing the (Left, Right) stream edge that
// satisfy its equi/band predicate.
type EdgeStats struct {
	Left, Right int
	Selectivity float64
}

// StatsSnapshot is a point-in-time, read-only copy of the join's measured
// statistics. Feed it back to AutoPlanFrom to re-plan the deployment from
// measured values instead of guesses.
type StatsSnapshot struct {
	Streams []StreamStats
	// GlobalT is max_i iT, the framework's logical "now".
	GlobalT Time
	// MaxDelayAllTime is the largest delay among all observed tuples.
	MaxDelayAllTime Time
	// Edges estimates per-predicate selectivities from the cumulative
	// result and arrival counters, decomposed uniformly over the
	// condition's equi and band edges; nil while nothing can be estimated
	// yet (no arrivals, or a condition without equi/band predicates).
	Edges []EdgeStats
}

// Snapshot copies the current delay statistics. On deployments without a
// feedback loop (a StaticSlack tree plan) the snapshot is zero-valued with
// Streams nil.
func (j *Join) Snapshot() StatsSnapshot {
	m := j.ex.Stats()
	if m == nil {
		return StatsSnapshot{}
	}
	snap := StatsSnapshot{
		Streams:         make([]StreamStats, m.M()),
		GlobalT:         m.GlobalT(),
		MaxDelayAllTime: m.MaxDelayAllTime(),
	}
	for i := range snap.Streams {
		snap.Streams[i] = StreamStats{
			Rate:           m.Rate(i),
			HistoryLen:     m.HistoryLen(i),
			MaxDelayRecent: m.Hist(i).MaxDelay(),
			KSync:          m.KSync(i),
			LocalT:         m.LocalT(i),
		}
	}
	snap.Edges = j.edgeStats(m.M(), func(i int) int64 { return m.Arrivals(i) }, snap.Streams)
	return snap
}

// edgeStats estimates per-edge selectivities from the cumulative counters:
// the total result count over the expected number of unfiltered m-way
// combinations, decomposed uniformly over the condition's predicate edges.
func (j *Join) edgeStats(m int, arrivals func(int) int64, streams []StreamStats) []EdgeStats {
	cond, windows := j.g.Cond, j.g.Windows
	e := len(cond.Equis) + len(cond.Bands)
	if e == 0 {
		return nil
	}
	var cross float64
	for i := 0; i < m; i++ {
		comb := float64(arrivals(i))
		for k := 0; k < m; k++ {
			if k == i {
				continue
			}
			comb *= streams[k].Rate * float64(windows[k])
		}
		cross += comb
	}
	if cross <= 0 {
		return nil
	}
	sigTot := math.Min(1, math.Max(float64(j.Results())/cross, 1e-9))
	sigEdge := math.Pow(sigTot, 1/float64(e))
	out := make([]EdgeStats, 0, e)
	for _, p := range cond.Equis {
		out = append(out, EdgeStats{Left: p.LeftStream, Right: p.RightStream, Selectivity: sigEdge})
	}
	for _, p := range cond.Bands {
		out = append(out, EdgeStats{Left: p.LeftStream, Right: p.RightStream, Selectivity: sigEdge})
	}
	return out
}
