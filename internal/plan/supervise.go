package plan

// The runtime shell every replaying deployment runs behind. A replay —
// restoring the last checkpoint after a contained worker failure, or
// migrating the join into another shape — rebuilds an executor and
// re-pushes a logged suffix of arrivals behind an exactly-once gate. The
// shell owns the current graph, the one arrival log, and the one gate
// (gate.go), and runs both kinds of replay through the same path.
//
// Supervision. The engines convert worker panics into driver-side panics
// carrying *fault.WorkerError (workers switch to drain mode, so the engine
// stays tearable-down); the shell catches those, restores the last boundary
// checkpoint into a fresh executor, replays the arrivals logged since, and
// retries under a bounded jittered backoff. Failures that outlive the retry
// budget surface as a terminal *fault.JoinError through Err() — never as a
// crash of the caller. Checkpoints are taken automatically at adaptation
// boundaries (the gated OnAdapt marks them), which is the point where tree
// checkpoints are K-trajectory-exact (see internal/dist). Lifecycle panics —
// the documented plain-string API-misuse panics — are NEVER treated as
// faults: the shell re-panics them untouched. A shell built Unsupervised
// takes no checkpoints and lets failures propagate as a bare executor does.
//
// Re-planning. With a Replanner every result materializes through the
// gate's migration filters, the log stays deep enough for any migration
// horizon, and every admitted arrival is handed to the Replanner, which
// calls Migrate (migrate.go) at a boundary.
//
// The log. An arrival is dropped once no replay can need it: neither the
// recovery from the last checkpoint (it arrived before it, or the shell is
// unsupervised) nor any possible migration horizon (its timestamp is below
// the prune horizon, or the shell does not re-plan).
//
// Supervised is driver-thread-only, like the engines it wraps: one
// goroutine calls Push/TryPush/Finish.

import (
	"errors"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/stats"
	"repro/internal/stream"
)

// SuperviseConfig configures the runtime shell.
type SuperviseConfig struct {
	// Backoff is the restart schedule; the zero value means
	// fault.DefaultBackoff().
	Backoff fault.Backoff
	// Inject optionally arms the deterministic fault injector on the built
	// executor (overriding ExecConfig.Inject). The shell counts every
	// offered arrival (Injector.Arrival) and pauses the injector during
	// every replay, so directives fire exactly once at their configured
	// arrival count.
	Inject *fault.Injector
	// Ingest bounds the K-slack occupancy; zero value = unbounded.
	Ingest IngestConfig
	// CheckpointEvery is how many adaptation boundaries pass between
	// automatic checkpoints: 1 checkpoints at every boundary (cheapest
	// recovery, highest steady-state cost), larger values amortize the
	// capture over a longer replay log. 0 selects the default — one
	// checkpoint per measurement period (P/L boundaries), which keeps the
	// capture cost a few percent of steady-state throughput while bounding
	// the replay at one period of arrivals.
	CheckpointEvery int
	// OnRestart, when set, observes every recovery: the restart ordinal
	// (counting from 1) and the failure that triggered it.
	OnRestart func(restart int, cause error)
	// Unsupervised turns recovery off: no automatic checkpoints, and a
	// contained worker failure panics on the caller as on a bare executor.
	// A re-planning join that did not ask for supervision runs this way.
	Unsupervised bool
	// Replan, when set, drives live migrations between shapes.
	Replan Replanner
}

// Replanner is a re-planning loop the shell drives (internal/replan).
type Replanner interface {
	// Step runs after every admitted arrival t. boundary reports whether
	// the executor is at a decision point: t's push crossed an adaptation
	// boundary. Step may call s.Migrate.
	Step(s *Supervised, t *stream.Tuple, boundary bool)
	// Period is the re-planning cadence. The log prunes once per period
	// and keeps one period of margin below the deepest migration horizon.
	Period() stream.Time
}

// Supervised is the runtime shell around a built executor. Build one with
// NewSupervised.
type Supervised struct {
	g    *Graph     // the deployed graph
	cfg  ExecConfig // callbacks replaced by the gate's
	scf  SuperviseConfig
	inj  *fault.Injector
	gate gate

	ex *core.Pipeline

	backoff fault.Backoff
	pending *stream.Tuple // the arrival pushFn feeds (avoids a closure per Push)
	pushFn  func()

	// log[ckptAt:] arrived since the last checkpoint; while re-planning,
	// every arrival with TS ≥ logSince is in the log as well.
	log       []*stream.Tuple
	ckptAt    int
	logSince  stream.Time
	clocks    []stream.Time // per-stream clocks of the admitted arrivals; nil until the first one
	now       stream.Time   // the largest of them
	lastPrune stream.Time

	ckpt      *ExecState // last boundary checkpoint, nil before the first
	ckptMeta  meta
	ckptEvery int // boundaries between automatic checkpoints
	sinceCkpt int // boundaries since the last one

	dropped    int64
	restarts   int
	ckpts      int
	migrations int
	ckptTime   time.Duration // total wall time spent inside automatic captures
	err        error
	finished   bool
}

// NewSupervised builds the executor for (g, cfg) behind the shell.
func NewSupervised(g *Graph, cfg ExecConfig, scf SuperviseConfig) *Supervised {
	s := newSupervisedShell(g, cfg, scf)
	s.ex = Build(g, s.cfg)
	return s
}

// NewSupervisedRestore builds the shell with its initial executor restored
// from a persisted checkpoint instead of built fresh. The snapshot doubles
// as the recovery point until the next adaptation boundary replaces it, and
// dropped seeds the refused-arrival counter so accounting survives the
// restart. The snapshot's signature must match (g, cfg) or the restore is
// refused with fault.ErrRestoreMismatch. A restored shell cannot re-plan,
// a row of Matrix.
func NewSupervisedRestore(g *Graph, cfg ExecConfig, scf SuperviseConfig, st ExecState, dropped int64) (*Supervised, error) {
	if scf.Replan != nil {
		return nil, errors.New("plan: " + (Replanned|Restored).Refuse(0, 0).Message(API))
	}
	s := newSupervisedShell(g, cfg, scf)
	ex, err := Restore(g, s.cfg, st)
	if err != nil {
		return nil, err
	}
	s.ex = ex
	s.ckpt = &st
	s.dropped = dropped
	return s, nil
}

// newSupervisedShell wires config, injector and the gate — everything
// except the executor itself.
func newSupervisedShell(g *Graph, cfg ExecConfig, scf SuperviseConfig) *Supervised {
	s := &Supervised{g: g, scf: scf, backoff: scf.Backoff, logSince: math.MinInt64}
	if s.backoff.Base == 0 && s.backoff.Retries == 0 {
		s.backoff = fault.DefaultBackoff()
	}
	s.inj = scf.Inject
	if s.inj == nil {
		s.inj = cfg.Inject
	}
	cfg.Inject = s.inj
	s.gate = gate{emit: cfg.Emit, counts: cfg.EmitCounts, adapt: cfg.OnAdapt}
	if cfg.Emit != nil {
		cfg.Emit = s.gate.result
	}
	if cfg.EmitCounts != nil {
		cfg.EmitCounts = s.gate.chunk
	}
	if scf.Replan != nil {
		// A filter reads every result's members; the count sink then sees
		// one count per delivered result.
		s.gate.replan, s.gate.maxTS = true, math.MinInt64
		cfg.Emit, cfg.EmitCounts = s.gate.result, nil
	}
	cfg.OnAdapt = s.gate.adaptation // always: boundaries drive checkpointing
	s.cfg = cfg
	s.ckptEvery = scf.CheckpointEvery
	if s.ckptEvery <= 0 {
		// One checkpoint per period P, at the engines' own P and L.
		a := cfg.Adapt.Normalize()
		s.ckptEvery = max(1, int(a.P/a.L))
	}
	s.pushFn = func() {
		s.ex.Push(s.pending)
		if ic := s.scf.Ingest; ic.Policy == IngestShed && ic.MaxBuffered > 0 {
			s.shedTo(ic.MaxBuffered)
		}
	}
	return s
}

// ---- ingest ----

// Push feeds one arrival. A terminal failure makes Push a silent no-op —
// check Err(). Lifecycle misuse (Push after Close) keeps the engines'
// documented panic.
func (s *Supervised) Push(t *stream.Tuple) {
	if s.err != nil {
		return
	}
	if s.finished {
		s.ex.Push(t) // surfaces the engine's lifecycle panic untouched
		return
	}
	s.TryPush(t)
}

// TryPush feeds one arrival and reports refusal as a typed error instead
// of a panic: fault.ErrInvalidTuple for a Src outside [0, m) or a negative
// TS (refused before the log, the injector or the engine sees it),
// fault.ErrClosed after Close, fault.ErrOverload when the Error ingest
// policy refuses at the bound, the terminal *fault.JoinError after
// supervision gave up.
func (s *Supervised) TryPush(t *stream.Tuple) error {
	if s.err != nil {
		return s.err
	}
	if s.finished {
		return fault.ErrClosed
	}
	if err := CheckTuple(t, len(s.g.Windows)); err != nil {
		return err
	}
	s.inj.Arrival()
	ic := s.scf.Ingest
	if ic.MaxBuffered > 0 && ic.Policy == IngestError && s.ex.BufferedTuples() >= ic.MaxBuffered {
		// Refused tuples never reach the engine or the log, so the admitted
		// sequence (and any replay of it) is unchanged.
		s.dropped++
		return fault.ErrOverload
	}
	s.log = append(s.log, t)
	s.pending = t
	// No rerun: t is in the log, recovery replays it.
	if !s.run(s.pushFn, false) {
		return s.err
	}
	boundary := s.gate.boundary
	s.gate.boundary = false
	if boundary && !s.scf.Unsupervised {
		if s.sinceCkpt++; s.sinceCkpt >= s.ckptEvery && !s.run(s.takeCheckpoint, false) {
			return s.err
		}
	}
	if r := s.scf.Replan; r != nil {
		s.observe(t, r.Period())
		r.Step(s, t, boundary)
	}
	return s.err
}

// shedTo evicts lowest-productivity buffered tuples until occupancy ≤ max.
func (s *Supervised) shedTo(max int) {
	for s.ex.BufferedTuples() > max {
		if !s.ex.ShedWorst() {
			return
		}
	}
}

// observe advances the clocks past an admitted arrival and prunes the log
// once per re-planning period.
func (s *Supervised) observe(t *stream.Tuple, period stream.Time) {
	if s.clocks == nil {
		s.clocks = make([]stream.Time, len(s.g.Windows))
		for i := range s.clocks {
			s.clocks[i] = t.TS
		}
		s.now, s.lastPrune = t.TS, t.TS
	}
	s.clocks[t.Src] = max(s.clocks[t.Src], t.TS)
	s.now = max(s.now, t.TS)
	if period > 0 && s.now-s.lastPrune >= period {
		s.lastPrune = s.now
		s.prune(period)
	}
}

// prune drops the arrivals no replay can need, and the migration filters no
// result can meet again. Any future migration horizon satisfies
// H ≥ min localT − maxK − maxW − 1 (an unreleased tuple's timestamp exceeds
// its stream's clock minus the buffer size), and clocks only advance; one
// period of margin absorbs the K trajectory moving before the boundary the
// migration waits for.
func (s *Supervised) prune(period stream.Time) {
	keep := s.clocks[0]
	for _, c := range s.clocks[1:] {
		keep = min(keep, c)
	}
	var maxK stream.Time
	for _, k := range s.ex.CurrentKs() {
		maxK = max(maxK, k)
	}
	keep -= maxK + maxWindow(s.g) + period + 1
	if keep <= s.logSince {
		return
	}
	pin := s.ckptAt // recovery replays log[ckptAt:]
	if s.scf.Unsupervised {
		pin = len(s.log)
	}
	kept := s.log[:0]
	for _, t := range s.log[:pin] {
		if t.TS >= keep {
			kept = append(kept, t)
		}
	}
	s.ckptAt = len(kept)
	kept = append(kept, s.log[pin:]...)
	clear(s.log[len(kept):])
	s.log = kept
	s.logSince = keep
	s.gate.prune(keep)
}

// Finish flushes the join. A failure during the flush recovers like any
// other (restore, replay, re-Finish); after a terminal failure Finish is a
// no-op — check Err().
func (s *Supervised) Finish() {
	if s.err != nil {
		return
	}
	if s.finished {
		s.ex.Finish() // surfaces the engine's double-Finish lifecycle panic
		return
	}
	if !s.run(func() { s.ex.Finish() }, true) {
		return
	}
	s.finished = true
	s.ckpt = nil
	s.log = nil
}

// ---- supervision core ----

// run executes f under the recovery loop. On a contained fault: back off,
// restore the last checkpoint into a fresh executor, replay the log, and —
// when rerun is set (for work not represented in the log, like Finish) —
// run f again. Returns false when the retry budget is exhausted and the
// join went terminal. Unsupervised, f runs bare.
func (s *Supervised) run(f func(), rerun bool) bool {
	if s.scf.Unsupervised {
		f()
		return true
	}
	err := s.attempt(f)
	for attempt := 0; err != nil; attempt++ {
		if attempt >= s.backoff.Retries {
			s.ex.Abandon()
			s.err = &fault.JoinError{Restarts: s.restarts, Cause: err}
			return false
		}
		s.restarts++
		if s.scf.OnRestart != nil {
			s.scf.OnRestart(s.restarts, err)
		}
		s.backoff.Wait(attempt)
		err = s.recoverReplay()
		if err == nil && rerun {
			err = s.attempt(f)
		}
	}
	return true
}

// attempt runs f, converting contained panics to errors. Documented
// lifecycle panics (plain strings) are API misuse, not faults: re-panic.
func (s *Supervised) attempt(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if fault.Lifecycle(r) {
				panic(r)
			}
			err = fault.AsError(r)
		}
	}()
	f()
	return nil
}

// recoverReplay tears down the crashed executor — an interrupted
// migration's half-built one included — rebuilds the deployed graph from
// the last checkpoint (or from scratch), and replays the arrivals logged
// since. The injector is paused for the duration so one-shot directives do
// not refire and the arrival counter does not advance.
func (s *Supervised) recoverReplay() error {
	return s.attempt(func() {
		if s.inj != nil {
			s.inj.Pause()
			defer s.inj.Resume()
		}
		s.ex.Abandon()
		if s.ckpt != nil {
			ex, err := Restore(s.g, s.cfg, *s.ckpt)
			if err != nil {
				panic(err)
			}
			s.ex = ex
			s.gate.rewind(s.ckptMeta)
		} else {
			s.ex = Build(s.g, s.cfg)
			s.gate.rewind(meta{})
		}
		s.gate.boundary = false
		s.sinceCkpt = 0 // the restored point IS the last checkpoint
		s.replay(s.log[s.ckptAt:], math.MinInt64)
	})
}

// replay re-pushes the logged arrivals with TS ≥ from through the push
// path, shed policy included — its eviction order is deterministic, so a
// same-shape replay repeats the original decisions. It returns how many
// arrivals it pushed.
func (s *Supervised) replay(log []*stream.Tuple, from stream.Time) int {
	n := 0
	for _, t := range log {
		if t.TS >= from {
			s.pending = t
			s.pushFn()
			n++
		}
	}
	return n
}

// takeCheckpoint captures the boundary checkpoint. Runs under run(): a
// pending worker failure surfacing during the capture triggers a normal
// recovery instead of a crash.
func (s *Supervised) takeCheckpoint() { s.checkpointAs(s.g) }

// checkpointAs captures the executor as a deployment of g and moves the
// recovery point to it.
func (s *Supervised) checkpointAs(g *Graph) {
	t0 := time.Now()
	st := Checkpoint(g, s.cfg, s.ex)
	s.ckptTime += time.Since(t0)
	s.ckpt, s.ckptMeta, s.sinceCkpt = &st, s.gate.mark(), 0
	s.ckpts++
	s.ckptAt = len(s.log)
	if s.scf.Replan == nil { // no migration reaches back: truncate
		s.log, s.ckptAt = s.log[:0], 0
	}
}

// ---- state surface ----

// Err returns the terminal *fault.JoinError, or nil while the join is
// healthy. Supervision makes worker faults invisible until the retry
// budget is spent; after that every Push is dropped and Err reports why.
func (s *Supervised) Err() error { return s.err }

// Dropped returns the number of arrivals refused by the Error ingest
// policy.
func (s *Supervised) Dropped() int64 { return s.dropped }

// Restarts returns the number of recoveries performed so far.
func (s *Supervised) Restarts() int { return s.restarts }

// Checkpoints returns the number of automatic checkpoints the runtime has
// captured (CheckpointEvery controls the cadence; every migration under
// supervision adds one).
func (s *Supervised) Checkpoints() int { return s.ckpts }

// CheckpointTime returns the total wall time spent capturing automatic
// checkpoints — the steady-state cost checkpointing adds to a healthy run.
func (s *Supervised) CheckpointTime() time.Duration { return s.ckptTime }

// Migrations returns how many live migrations have completed.
func (s *Supervised) Migrations() int { return s.migrations }

// Graph returns the deployed plan graph: the initial one, or the latest
// migration target.
func (s *Supervised) Graph() *Graph { return s.g }

// Checkpoint captures the current executor state for external persistence
// (it does not replace the shell's recovery point), signed with the
// deployed graph. On tree deployments a mid-interval capture preserves the
// result multiset exactly but pins the K trajectory only from the next
// boundary on; flat deployments are exact at any point.
func (s *Supervised) Checkpoint() (ExecState, error) {
	if s.err != nil {
		return ExecState{}, s.err
	}
	if s.finished {
		return ExecState{}, fault.ErrClosed
	}
	var st ExecState
	if !s.run(func() { st = Checkpoint(s.g, s.cfg, s.ex) }, true) {
		return ExecState{}, s.err
	}
	return st, nil
}

// BufferedTuples returns the K-slack occupancy the ingest bound measures.
func (s *Supervised) BufferedTuples() int { return s.ex.BufferedTuples() }

// RecallEstimate reports the run-level recall estimate, shed losses
// included.
func (s *Supervised) RecallEstimate() float64 { return s.ex.RecallEstimate() }

// ---- Executor delegation ----

// Results returns the number of results produced, replays excluded: the
// engine count is restored from the checkpoint, so it never double-counts.
// While re-planning it is the count of results the gate delivered, which
// stays continuous across migrations.
func (s *Supervised) Results() int64 {
	if s.scf.Replan != nil {
		return s.gate.out
	}
	return s.ex.Results()
}

// CurrentKs returns the most recent buffer-size decision.
func (s *Supervised) CurrentKs() []stream.Time { return s.ex.CurrentKs() }

// AvgK returns the average largest per-scope K.
func (s *Supervised) AvgK() float64 { return s.ex.AvgK() }

// Adaptations returns the number of adaptation steps.
func (s *Supervised) Adaptations() int64 { return s.ex.Adaptations() }

// Stats exposes the Statistics Manager.
func (s *Supervised) Stats() *stats.Manager { return s.ex.Stats() }

// SetEmit installs a result callback before the first Push; the callback
// stays exactly-once across recoveries and migrations.
func (s *Supervised) SetEmit(f join.EmitFunc) {
	s.gate.emit = f
	if s.cfg.Emit == nil {
		s.cfg.Emit = s.gate.result
		s.ex.SetEmit(s.cfg.Emit)
	}
}
