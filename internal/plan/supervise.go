package plan

// The supervised runtime: an Executor wrapper that turns contained worker
// failures into recoveries instead of crashes. The engines below already
// convert worker panics into driver-side panics carrying *fault.WorkerError
// (workers switch to drain mode, so the engine stays tearable-down); the
// supervisor is the layer that catches those, restores the last boundary
// checkpoint into a fresh executor, replays the arrivals logged since, and
// retries under a bounded jittered backoff. Failures that outlive the
// retry budget surface as a terminal *fault.JoinError through Err() —
// never as a crash of the caller.
//
// Exactness. Recovery replays arrivals through the same deterministic
// engines, so the restored run re-produces results (and result-count
// chunks, and adaptation events) the original already delivered. Every
// user-facing callback is therefore gated behind a produced/delivered
// counter pair: emissions are delivered only when the produced count
// exceeds the delivered high-water mark. Because each engine's emission
// order is deterministic, the counters suppress exactly the replayed
// prefix — the caller observes every result exactly once, in order, as if
// no fault had happened.
//
// Checkpoints are taken automatically at adaptation boundaries (the gated
// OnAdapt marks them), which is the point where tree checkpoints are
// K-trajectory-exact (see internal/dist). Between boundaries the arrival
// log carries the difference. Lifecycle panics — the documented plain-string
// API-misuse panics — are NEVER treated as faults: the supervisor re-panics
// them untouched.
//
// Supervised is driver-thread-only, like the engines it wraps: one
// goroutine calls Push/TryPush/Finish.

import (
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/stats"
	"repro/internal/stream"
)

// SuperviseConfig configures the supervised runtime.
type SuperviseConfig struct {
	// Backoff is the restart schedule; the zero value means
	// fault.DefaultBackoff().
	Backoff fault.Backoff
	// Inject optionally arms the deterministic fault injector on the built
	// executor (overriding ExecConfig.Inject). The supervisor counts every
	// offered arrival (Injector.Arrival) and pauses the injector during
	// recovery replay, so directives fire exactly once at their configured
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
}

// bufferedExecutor is the occupancy/shedding surface both engines expose.
type bufferedExecutor interface {
	BufferedTuples() int
	ShedWorst() bool
	RecallEstimate() float64
}

// ckptMeta freezes the delivery counters alongside a checkpoint: restoring
// resets the produced counters to these values, and the delivered counters
// (which never rewind) gate out the replayed emissions.
type ckptMeta struct {
	produced int64
	chunks   int64
	adapts   int64
}

// Supervised wraps a built executor with supervision, checkpoint-based
// recovery, and bounded ingest. Build one with NewSupervised.
type Supervised struct {
	g   *Graph
	cfg ExecConfig // callbacks replaced by the gates below
	scf SuperviseConfig
	inj *fault.Injector

	userEmit    join.EmitFunc
	userCounts  join.CountEmitFunc
	userOnAdapt func(core.AdaptEvent)

	ex Executor
	be bufferedExecutor

	backoff   fault.Backoff
	pending   *stream.Tuple // the arrival pushFn feeds (avoids a closure per Push)
	pushFn    func()
	log       []*stream.Tuple // arrivals admitted since the last checkpoint
	ckpt      *ExecState      // last boundary checkpoint, nil before the first
	ckptMeta  ckptMeta
	ckptEvery int // boundaries between automatic checkpoints
	sinceCkpt int // boundaries since the last one

	produced, delivered     int64
	prodChunks, delivChunks int64
	prodAdapts, delivAdapts int64
	boundary                bool // an adaptation boundary occurred in the current Push

	dropped  int64
	restarts int
	ckpts    int
	ckptTime time.Duration // total wall time spent inside automatic captures
	err      error
	finished bool
}

// NewSupervised builds the executor for (g, cfg) under supervision.
func NewSupervised(g *Graph, cfg ExecConfig, scf SuperviseConfig) *Supervised {
	s := newSupervisedShell(g, cfg, scf)
	s.ex = Build(g, s.cfg)
	s.be, _ = s.ex.(bufferedExecutor)
	return s
}

// NewSupervisedRestore builds the supervised runtime with its initial
// executor restored from a persisted checkpoint instead of built fresh. The
// snapshot doubles as the supervisor's recovery point until the next
// adaptation boundary replaces it, and dropped seeds the refused-arrival
// counter so accounting survives the restart. The snapshot's signature must
// match (g, cfg) or the restore is refused with fault.ErrRestoreMismatch.
func NewSupervisedRestore(g *Graph, cfg ExecConfig, scf SuperviseConfig, st ExecState, dropped int64) (*Supervised, error) {
	s := newSupervisedShell(g, cfg, scf)
	ex, err := Restore(g, s.cfg, st)
	if err != nil {
		return nil, err
	}
	s.ex = ex
	s.be, _ = s.ex.(bufferedExecutor)
	s.ckpt = &st
	s.dropped = dropped
	return s, nil
}

// newSupervisedShell wires config, injector and delivery gates — everything
// except the executor itself.
func newSupervisedShell(g *Graph, cfg ExecConfig, scf SuperviseConfig) *Supervised {
	s := &Supervised{g: g, scf: scf, backoff: scf.Backoff}
	if s.backoff.Base == 0 && s.backoff.Retries == 0 {
		s.backoff = fault.DefaultBackoff()
	}
	s.inj = scf.Inject
	if s.inj == nil {
		s.inj = cfg.Inject
	}
	cfg.Inject = s.inj
	s.userEmit = cfg.Emit
	s.userCounts = cfg.EmitCounts
	s.userOnAdapt = cfg.OnAdapt
	if cfg.Emit != nil {
		cfg.Emit = s.gatedEmit
	}
	if cfg.EmitCounts != nil {
		cfg.EmitCounts = s.gatedCounts
	}
	cfg.OnAdapt = s.gatedOnAdapt // always: boundaries drive checkpointing
	s.cfg = cfg
	s.ckptEvery = scf.CheckpointEvery
	if s.ckptEvery <= 0 {
		p, l := cfg.Adapt.P, cfg.Adapt.L
		if p == 0 {
			p = stream.Minute // the engines' default P
		}
		if l == 0 {
			l = stream.Second // the engines' default L
		}
		s.ckptEvery = 1
		if n := int(p / l); n > 1 {
			s.ckptEvery = n
		}
	}
	s.pushFn = func() {
		s.ex.Push(s.pending)
		if ic := s.scf.Ingest; ic.Policy == IngestShed && ic.MaxBuffered > 0 && s.be != nil {
			s.shedTo(ic.MaxBuffered)
		}
	}
	return s
}

// ---- delivery gates ----

func (s *Supervised) gatedEmit(r stream.Result) {
	s.produced++
	if s.produced > s.delivered {
		s.delivered++
		if s.userEmit != nil {
			s.userEmit(r)
		}
	}
}

func (s *Supervised) gatedCounts(ts stream.Time, n int64) {
	s.prodChunks++
	if s.prodChunks > s.delivChunks {
		s.delivChunks++
		if s.userCounts != nil {
			s.userCounts(ts, n)
		}
	}
}

func (s *Supervised) gatedOnAdapt(ev core.AdaptEvent) {
	s.prodAdapts++
	if s.prodAdapts > s.delivAdapts {
		s.delivAdapts++
		s.boundary = true
		if s.userOnAdapt != nil {
			s.userOnAdapt(ev)
		}
	}
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
// of a panic: fault.ErrClosed after Close, fault.ErrOverload when the
// Error ingest policy refuses at the bound, the terminal *fault.JoinError
// after supervision gave up.
func (s *Supervised) TryPush(t *stream.Tuple) error {
	if s.err != nil {
		return s.err
	}
	if s.finished {
		return fault.ErrClosed
	}
	s.inj.Arrival()
	ic := s.scf.Ingest
	bounded := ic.MaxBuffered > 0 && s.be != nil
	if bounded && ic.Policy == IngestError && s.be.BufferedTuples() >= ic.MaxBuffered {
		// Refused tuples never reach the engine or the recovery log, so the
		// admitted sequence (and any replay of it) is unchanged.
		s.dropped++
		return fault.ErrOverload
	}
	s.log = append(s.log, t)
	s.pending = t
	// No rerun: t is in the log, recovery replays it.
	if !s.run(s.pushFn, false) {
		return s.err
	}
	if s.boundary {
		s.boundary = false
		s.sinceCkpt++
		if s.sinceCkpt >= s.ckptEvery {
			if !s.run(s.takeCheckpoint, false) {
				return s.err
			}
		}
	}
	return nil
}

// shedTo evicts lowest-productivity buffered tuples until occupancy ≤ max.
func (s *Supervised) shedTo(max int) {
	for s.be.BufferedTuples() > max {
		if !s.be.ShedWorst() {
			return
		}
	}
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
// join went terminal.
func (s *Supervised) run(f func(), rerun bool) bool {
	err := s.attempt(f)
	for attempt := 0; err != nil; attempt++ {
		if attempt >= s.backoff.Retries {
			Abandon(s.ex)
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

// recoverReplay tears down the crashed executor, rebuilds from the last
// checkpoint (or from scratch), and replays the logged arrivals through
// the same push path — including the shed policy, whose deterministic
// eviction order reproduces the original decisions. The injector is paused
// for the duration so one-shot directives do not refire and the arrival
// counter does not advance.
func (s *Supervised) recoverReplay() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if fault.Lifecycle(r) {
				panic(r)
			}
			err = fault.AsError(r)
		}
	}()
	if s.inj != nil {
		s.inj.Pause()
		defer s.inj.Resume()
	}
	Abandon(s.ex)
	if s.ckpt != nil {
		ex, rerr := Restore(s.g, s.cfg, *s.ckpt)
		if rerr != nil {
			return rerr
		}
		s.ex = ex
		s.produced = s.ckptMeta.produced
		s.prodChunks = s.ckptMeta.chunks
		s.prodAdapts = s.ckptMeta.adapts
	} else {
		s.ex = Build(s.g, s.cfg)
		s.produced, s.prodChunks, s.prodAdapts = 0, 0, 0
	}
	s.be, _ = s.ex.(bufferedExecutor)
	s.boundary = false
	s.sinceCkpt = 0 // the restored point IS the last checkpoint
	ic := s.scf.Ingest
	shed := ic.MaxBuffered > 0 && s.be != nil && ic.Policy == IngestShed
	for _, t := range s.log {
		s.ex.Push(t)
		if shed {
			s.shedTo(ic.MaxBuffered)
		}
	}
	return nil
}

// takeCheckpoint captures the boundary checkpoint and truncates the log.
// Runs under run(): a pending worker failure surfacing during the capture
// triggers a normal recovery instead of a crash.
func (s *Supervised) takeCheckpoint() {
	t0 := time.Now()
	st, err := Checkpoint(s.g, s.cfg, s.ex)
	s.ckptTime += time.Since(t0)
	if err != nil {
		return // non-checkpointable executor: keep the full log instead
	}
	s.ckpt = &st
	s.ckptMeta = ckptMeta{produced: s.produced, chunks: s.prodChunks, adapts: s.prodAdapts}
	s.log = s.log[:0]
	s.sinceCkpt = 0
	s.ckpts++
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

// Checkpoints returns the number of automatic boundary checkpoints the
// runtime has captured (CheckpointEvery controls the cadence).
func (s *Supervised) Checkpoints() int { return s.ckpts }

// CheckpointTime returns the total wall time spent capturing automatic
// boundary checkpoints — the steady-state cost checkpointing adds to a
// healthy run.
func (s *Supervised) CheckpointTime() time.Duration { return s.ckptTime }

// Checkpoint captures the current executor state for external persistence
// (it does not replace the supervisor's internal boundary checkpoint). On
// tree deployments a mid-interval capture preserves the result multiset
// exactly but pins the K trajectory only from the next boundary on; flat
// deployments are exact at any point.
func (s *Supervised) Checkpoint() (ExecState, error) {
	if s.err != nil {
		return ExecState{}, s.err
	}
	if s.finished {
		return ExecState{}, fault.ErrClosed
	}
	var st ExecState
	var cerr error
	if !s.run(func() { st, cerr = Checkpoint(s.g, s.cfg, s.ex) }, true) {
		return ExecState{}, s.err
	}
	return st, cerr
}

// BufferedTuples returns the K-slack occupancy the ingest bound measures.
func (s *Supervised) BufferedTuples() int {
	if s.be == nil {
		return 0
	}
	return s.be.BufferedTuples()
}

// ShedWorst evicts the lowest-productivity buffered tuple (see the
// engines' ShedWorst).
func (s *Supervised) ShedWorst() bool {
	if s.be == nil {
		return false
	}
	return s.be.ShedWorst()
}

// RecallEstimate reports the run-level recall estimate, shed losses
// included (1 on deployments without a feedback loop).
func (s *Supervised) RecallEstimate() float64 {
	if s.be == nil {
		return 1
	}
	return s.be.RecallEstimate()
}

// ---- Executor delegation ----

// Results returns the number of results produced (replays excluded — the
// engine count is restored from the checkpoint, so it never double-counts).
func (s *Supervised) Results() int64 { return s.ex.Results() }

// CurrentKs returns the most recent buffer-size decision.
func (s *Supervised) CurrentKs() []stream.Time { return s.ex.CurrentKs() }

// AvgK returns the average largest per-scope K.
func (s *Supervised) AvgK() float64 { return s.ex.AvgK() }

// Adaptations returns the number of adaptation steps.
func (s *Supervised) Adaptations() int64 { return s.ex.Adaptations() }

// Stats exposes the Statistics Manager (nil on static trees).
func (s *Supervised) Stats() *stats.Manager { return s.ex.Stats() }

// SetEmit installs a result callback before the first Push; the callback
// stays exactly-once across recoveries.
func (s *Supervised) SetEmit(f join.EmitFunc) {
	s.userEmit = f
	if s.cfg.Emit == nil {
		s.cfg.Emit = s.gatedEmit
		s.ex.SetEmit(s.gatedEmit)
	}
}
