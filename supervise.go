package qdhj

// The public face of the fault-tolerant runtime (internal/plan.Supervised
// and internal/fault): supervision options, bounded ingest, typed errors,
// and the deterministic fault injector that powers the differential
// recovery tests. See DESIGN.md §10 for the fault model and the
// checkpoint-consistency argument.

import (
	"time"

	"repro/internal/fault"
	"repro/internal/plan"
)

// Typed errors reported by TryPush, Checkpoint and Restore. API misuse —
// Push after Close, double Close, mutating a sealed Condition — still
// panics with the documented plain-string messages: those are bugs in the
// caller, not runtime faults, and supervision never converts them.
var (
	// ErrClosed reports an operation on a closed join.
	ErrClosed = fault.ErrClosed
	// ErrOverload reports an arrival refused by the Error ingest policy.
	ErrOverload = fault.ErrOverload
	// ErrRestoreMismatch reports a snapshot whose deployment signature
	// (condition, windows, shape, policy) disagrees with the restore target.
	ErrRestoreMismatch = fault.ErrRestoreMismatch
)

// JoinError is the terminal error of a supervised join: the retry budget is
// spent and the join is permanently down. Unwrap yields the final cause —
// typically a *WorkerError.
type JoinError = fault.JoinError

// WorkerError identifies the parallel worker whose failure was contained.
type WorkerError = fault.WorkerError

// Backoff is the restart schedule of a supervised join: bounded equal-jitter
// exponential backoff with a capped retry budget. The zero value selects the
// default schedule (base 10ms, cap 1s, 5 retries).
type Backoff = fault.Backoff

// DefaultBackoff returns the default restart schedule.
func DefaultBackoff() Backoff { return fault.DefaultBackoff() }

// Supervision configures the supervised runtime; see WithSupervision.
type Supervision struct {
	// Backoff is the restart schedule; the zero value means DefaultBackoff.
	Backoff Backoff
	// OnRestart, when set, observes every recovery: the restart ordinal
	// (counting from 1) and the contained failure that triggered it.
	OnRestart func(restart int, cause error)
	// CheckpointEvery is how many adaptation boundaries pass between the
	// runtime's automatic checkpoints: 1 checkpoints at every boundary
	// (cheapest recovery, highest steady-state cost), larger values
	// amortize the capture over a longer crash-replay log. 0 selects the
	// default — one checkpoint per measurement period.
	CheckpointEvery int
}

// WithSupervision runs the join under the fault-tolerant runtime. Contained
// worker failures no longer crash the caller: the runtime restores the last
// adaptation-boundary checkpoint into a fresh executor, replays the
// arrivals logged since, and retries under s.Backoff. Delivery stays
// exactly-once across recoveries — result callbacks, count callbacks and
// adaptation hooks each see every event exactly once, as if no fault had
// happened. Failures that outlive the retry budget surface as a terminal
// *JoinError through Err, after which Push is a silent no-op and TryPush
// returns the error.
func WithSupervision(s Supervision) JoinOption {
	return func(o *joinOpts) {
		o.supervised = true
		o.scf.Backoff = s.Backoff
		o.scf.OnRestart = s.OnRestart
		o.scf.CheckpointEvery = s.CheckpointEvery
	}
}

// IngestPolicy selects what a supervised join does when the disorder-
// handling buffers reach the WithIngestBound occupancy bound.
type IngestPolicy = plan.IngestPolicy

// Ingest policies.
const (
	// IngestBlock admits every arrival: Push is synchronous, so the caller
	// slowing down IS the backpressure. The bound is advisory only.
	IngestBlock = plan.IngestBlock
	// IngestError refuses arrivals at the bound: TryPush returns
	// ErrOverload, Dropped counts the refusals, and the refused tuples are
	// never logged — a crash replay sees exactly the admitted sequence.
	IngestError = plan.IngestError
	// IngestShed admits the arrival, then evicts the lowest-productivity
	// buffered tuples until occupancy is back under the bound, accounting
	// every eviction with the feedback loop so RecallEstimate reflects the
	// loss. Eviction is deterministic and replays identically after a crash.
	IngestShed = plan.IngestShed
)

// WithIngestBound bounds the K-slack buffer occupancy at max tuples under
// the given overload policy. It implies WithSupervision with the default
// schedule unless WithSupervision is also given.
func WithIngestBound(max int, p IngestPolicy) JoinOption {
	return func(o *joinOpts) {
		o.supervised = true
		o.scf.Ingest = plan.IngestConfig{MaxBuffered: max, Policy: p}
	}
}

// Injector is the deterministic, seed-free fault injector: directives fire
// at exact offered-arrival counts (worker panics, worker delays, arrival
// bursts), so a faulty run is bit-for-bit reproducible. Build one with
// NewInjector().PanicAt(worker, tuple)... or ParseInjectSpec.
type Injector = fault.Injector

// NewInjector returns an empty injector; chain PanicAt/DelayAt/BurstAt.
func NewInjector() *Injector { return fault.NewInjector() }

// ParseInjectSpec compiles a comma-separated textual injection spec:
// "panic@shard1:tuple5000", "delay@shard0:tuple100:2ms",
// "burst@tuple2000:50".
func ParseInjectSpec(spec string) (*Injector, error) { return fault.ParseInjectSpec(spec) }

// WithInjector arms a deterministic fault injector on the join — the test
// harness for the fault-tolerant runtime. It implies WithSupervision with
// the default schedule unless WithSupervision is also given.
func WithInjector(inj *Injector) JoinOption {
	return func(o *joinOpts) {
		o.supervised = true
		o.scf.Inject = inj
	}
}

// TryPush feeds one arriving tuple, reporting refusal as a typed error
// instead of a panic: ErrClosed after Close, ErrOverload when the
// IngestError policy refuses at the bound, the terminal *JoinError after
// supervision gave up. On a healthy join it is exactly Push.
func (j *Join) TryPush(t *Tuple) error {
	if j.rt != nil {
		return j.rt.TryPush(t)
	}
	if j.closed {
		return ErrClosed
	}
	j.ex.Push(t)
	return nil
}

// Err returns the terminal *JoinError of a supervised join, or nil while
// the join is healthy (always nil on unsupervised joins — their worker
// failures panic instead).
func (j *Join) Err() error {
	if j.rt != nil {
		return j.rt.Err()
	}
	return nil
}

// Restarts returns how many checkpoint-restore recoveries the supervised
// runtime has performed.
func (j *Join) Restarts() int {
	if j.rt != nil {
		return j.rt.Restarts()
	}
	return 0
}

// Checkpoints returns how many automatic boundary checkpoints the
// supervised runtime has captured (Supervision.CheckpointEvery controls
// the cadence).
func (j *Join) Checkpoints() int {
	if j.rt != nil {
		return j.rt.Checkpoints()
	}
	return 0
}

// CheckpointTime returns the total wall time the supervised runtime has
// spent capturing automatic boundary checkpoints — the steady-state cost
// checkpointing adds to a healthy run.
func (j *Join) CheckpointTime() time.Duration {
	if j.rt != nil {
		return j.rt.CheckpointTime()
	}
	return 0
}

// Dropped returns the number of arrivals refused by the IngestError policy.
func (j *Join) Dropped() int64 {
	if j.rt != nil {
		return j.rt.Dropped()
	}
	return 0
}

// BufferedTuples returns the current K-slack buffer occupancy — the measure
// the WithIngestBound bound applies to.
func (j *Join) BufferedTuples() int {
	if be, ok := j.ex.(interface{ BufferedTuples() int }); ok {
		return be.BufferedTuples()
	}
	return 0
}

// RecallEstimate returns the run-level recall estimate: produced results
// over estimated-true results, with IngestShed losses accounted. It is 1 on
// deployments without a feedback loop (StaticSlack trees) and 1 before the
// first measurement period completes.
func (j *Join) RecallEstimate() float64 {
	if be, ok := j.ex.(interface{ RecallEstimate() float64 }); ok {
		return be.RecallEstimate()
	}
	return 1
}
