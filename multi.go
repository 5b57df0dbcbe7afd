package qdhj

// Multi-query execution: N joins over the same m streams execute against
// shared ingest state — window rings, hash/range indexes, K-slack buffers
// and statistics — maintained once per arrival instead of once per query,
// with one probe pass fanning results out to every query (see
// internal/multi and DESIGN.md §13). Every query's results and buffer-size
// trajectory are bit-for-bit those of a standalone Join fed the same
// arrivals; sharing only amortizes the work of computing them.

import (
	"fmt"
	"strings"

	"repro/internal/join"
	"repro/internal/multi"
)

// MultiJoin executes any number of concurrent join queries over one set of
// m input streams, sharing ingest, indexing and probe work across queries
// wherever results provably cannot change. It is not safe for concurrent
// use; feed it from one goroutine.
//
// Queries register with Add — before the first Push or at any later point
// (a late query starts cold at the current input position, exactly like a
// standalone Join started there) — and detach with Remove. Push feeds every
// registered query; Close flushes all shared buffers at end of input.
type MultiJoin struct {
	en      *multi.Engine
	queries []*MultiQuery
	closed  bool
}

// NewMultiJoin creates a multi-query join over m input streams.
func NewMultiJoin(m int) *MultiJoin {
	return &MultiJoin{en: multi.NewEngine(m)}
}

// MultiQuery is one registered query's handle.
type MultiQuery struct {
	mj      *MultiJoin
	q       *multi.Query
	out     chan Result
	hasSink bool
	removed bool
}

// Add registers one query: a join condition, per-stream window extents, and
// the same disorder-handling Options a standalone Join takes. The supported
// join options are WithResults, WithResultCounts and WithAdaptHook;
// deployment-shape options (WithShards, WithRemoteWorkers, WithFrameBatch,
// WithPlan, WithAutoPlan, WithSupervision, WithOnlineReplan) panic — the
// multi-query engine is its own deployment shape.
//
// Add may be called while the join is running; the new query sees only
// arrivals from this point on. Adding to a closed MultiJoin panics.
func (mj *MultiJoin) Add(cond *Condition, windows []Time, opt Options, jopts ...JoinOption) *MultiQuery {
	jo := collect(hostMultiAdd, jopts)
	cfg := execConfig(opt, jo)
	q := mj.en.Add(multi.QueryConfig{
		Cond:       cond,
		Windows:    windows,
		Adapt:      cfg.Adapt,
		Policy:     cfg.Policy,
		StaticK:    cfg.StaticK,
		Emit:       cfg.Emit,
		EmitCounts: cfg.EmitCounts,
		OnAdapt:    cfg.OnAdapt,
	})
	mq := &MultiQuery{mj: mj, q: q, hasSink: jo.emit != nil}
	mj.queries = append(mj.queries, mq)
	return mq
}

// Remove detaches a query at the current input position: its compiled
// residuals and feedback loop are freed while the shared windows keep
// serving the remaining queries. The query's results are exactly those of a
// standalone Join stopped (not Closed — nothing is flushed) at this point.
// Its RunChannel channel, if any, is closed. Removing an unknown or
// already-removed query panics, as does removing from a closed MultiJoin.
func (mj *MultiJoin) Remove(mq *MultiQuery) {
	if mq == nil || mq.mj != mj || mq.removed {
		panic("qdhj: Remove of an unknown or already-removed query")
	}
	mj.en.Remove(mq.q)
	mq.removed = true
	for i, other := range mj.queries {
		if other == mq {
			mj.queries = append(mj.queries[:i], mj.queries[i+1:]...)
			break
		}
	}
	if mq.out != nil {
		close(mq.out)
		mq.out = nil
	}
}

// Push feeds one arriving tuple to every registered query. Pushing into a
// closed MultiJoin panics, as does a tuple whose Src is outside [0, m)
// (with Join.Push's message).
func (mj *MultiJoin) Push(t *Tuple) {
	checkSrc(t, mj.en.M())
	mj.en.Push(t)
}

// Close flushes all shared disorder-handling buffers at end of input and
// closes every query's RunChannel channel. The MultiJoin must not be pushed
// to afterwards; closing twice panics.
func (mj *MultiJoin) Close() {
	mj.en.Close()
	mj.closed = true
	for _, mq := range mj.queries {
		if mq.out != nil {
			close(mq.out)
			mq.out = nil
		}
	}
}

// Queries returns the number of currently registered queries.
func (mj *MultiJoin) Queries() int { return mj.en.Queries() }

// QueryStats is one query's entry in a MultiJoin snapshot.
type QueryStats struct {
	// ID is the engine-assigned query id (registration order, from 0).
	ID int64
	// Epoch is the number of tuples the MultiJoin had consumed when the
	// query registered; 0 for queries registered before the first Push.
	Epoch int64
	// Results is the number of results the query has derived.
	Results int64
	// CurrentK is the input-sorting buffer size currently applied.
	CurrentK Time
	// AvgK is the average decided buffer size (the latency metric).
	AvgK float64
	// Adaptations counts the query's buffer-size adaptation steps.
	Adaptations int64
	// Recall is the query's run-level recall estimate.
	Recall float64
}

// Snapshot reports per-query statistics for every registered query, in
// registration order.
func (mj *MultiJoin) Snapshot() []QueryStats {
	out := make([]QueryStats, 0, len(mj.queries))
	for _, mq := range mj.queries {
		out = append(out, QueryStats{
			ID:          mq.q.ID(),
			Epoch:       mq.q.Epoch(),
			Results:     mq.q.Results(),
			CurrentK:    mq.q.CurrentK(),
			AvgK:        mq.q.AvgK(),
			Adaptations: mq.q.Adaptations(),
			Recall:      mq.q.RecallEstimate(),
		})
	}
	return out
}

// Explain renders the sharing structure: one line per shared ingest lane
// (windows × buffer-trajectory class) with its member queries, and one line
// per probe class (shared equi/band prefix) with its residual classes.
func (mj *MultiJoin) Explain() string {
	var b strings.Builder
	groups := mj.en.Groups()
	fmt.Fprintf(&b, "multi-join: %d queries, %d shared lanes\n", mj.en.Queries(), len(groups))
	for gi, g := range groups {
		fmt.Fprintf(&b, "lane %d (epoch %d, %s): queries %v\n", gi, g.Epoch, g.Key, g.Queries)
		for ci, c := range g.Classes {
			fmt.Fprintf(&b, "  probe class %d [%s]\n", ci, c.Skeleton)
			for _, r := range c.Residuals {
				fmt.Fprintf(&b, "    residual ×%d [%s]\n", r.Members, r.Sig)
			}
		}
	}
	return b.String()
}

// ID returns the query's engine-assigned id (registration order, from 0).
func (mq *MultiQuery) ID() int64 { return mq.q.ID() }

// Results returns the number of results this query has derived.
func (mq *MultiQuery) Results() int64 { return mq.q.Results() }

// CurrentK returns the buffer size currently applied to this query.
func (mq *MultiQuery) CurrentK() Time { return mq.q.CurrentK() }

// AvgK returns the query's average decided buffer size.
func (mq *MultiQuery) AvgK() float64 { return mq.q.AvgK() }

// Adaptations returns the query's buffer-size adaptation step count.
func (mq *MultiQuery) Adaptations() int64 { return mq.q.Adaptations() }

// RecallEstimate reports the query's run-level recall estimate.
func (mq *MultiQuery) RecallEstimate() float64 { return mq.q.RecallEstimate() }

// RunChannel returns a channel delivering this query's results in
// production order. Unlike Join.RunChannel it does not consume the input —
// the MultiJoin's single input is driven by Push — so results are produced
// synchronously during Push and Close: drain the channel from another
// goroutine (it is buffered, but a full buffer blocks Push). The channel
// closes when the query is removed or the MultiJoin is closed.
//
// The query must have no WithResults sink and RunChannel must be called at
// most once; both conflicts panic.
func (mq *MultiQuery) RunChannel() <-chan Result {
	if mq.hasSink {
		panic("qdhj: RunChannel on a query that already has a results sink (WithResults at Add, or an earlier RunChannel) — results would silently stop reaching it; use one sink per query")
	}
	if mq.removed {
		panic("qdhj: RunChannel on a removed query")
	}
	mq.hasSink = true
	out := make(chan Result, 256)
	mq.out = out
	mq.q.SetEmit(func(r Result) { out <- r })
	return out
}

// multiExplainClassInfo re-exports the kernel's explain structures for
// callers that want programmatic access to the sharing structure.
type (
	// MultiGroupInfo describes one shared ingest lane.
	MultiGroupInfo = multi.GroupInfo
	// MultiClassInfo describes one shared probe class.
	MultiClassInfo = join.MultiClassInfo
)

// SharingInfo returns the sharing structure in programmatic form: one entry
// per shared ingest lane, each listing its probe classes.
func (mj *MultiJoin) SharingInfo() []MultiGroupInfo { return mj.en.Groups() }
