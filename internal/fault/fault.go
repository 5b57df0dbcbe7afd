// Package fault is the fault-tolerance substrate of the runtime: the typed
// errors a supervised join surfaces instead of crashing, the tuple
// table/arena pair every checkpoint serializer shares (so one *stream.Tuple
// referenced from several windows round-trips as one record), the jittered
// exponential backoff the supervisor restarts under, and a deterministic
// seeded fault injector (inject.go) that drives the differential recovery
// tests and the qdhjrun -inject flag.
//
// # Fault model
//
// Survivable: a panic inside a shard or stage worker goroutine (contained,
// converted to a WorkerError, recovered from the last checkpoint), a panic
// on the driver thread between tuples (same recovery), and ingest overload
// (bounded, with block/error/shed policies). Not survivable — and kept as
// the documented lifecycle panics — is API misuse: Push after Close, double
// Close, mutating a sealed Condition. The supervisor re-panics string panic
// values untouched so those contracts are exactly as before.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/stream"
)

// Typed runtime errors surfaced via Join.Err() / TryPush instead of panics.
var (
	// ErrClosed reports an operation on a join that has terminally failed
	// (supervision retries exhausted) or been closed.
	ErrClosed = errors.New("fault: join is closed")
	// ErrOverload reports a rejected arrival under the Error ingest policy.
	ErrOverload = errors.New("fault: ingest bound exceeded")
	// ErrInvalidTuple reports an arrival whose Src names none of the
	// join's streams or whose TS is negative; it is refused before any
	// buffer or log sees it.
	ErrInvalidTuple = errors.New("fault: tuple Src is not a stream of the join, or its TS is negative")
	// ErrRestoreMismatch reports a snapshot restored against a join whose
	// plan shape, arity or windows differ from the checkpointed one.
	ErrRestoreMismatch = errors.New("fault: snapshot does not match the join configuration")
	// ErrInjected is the panic value of injector-induced worker panics.
	ErrInjected = errors.New("fault: injected failure")
)

// WorkerError is the typed form of a panic contained inside a worker
// goroutine (or on the driver thread between tuples).
type WorkerError struct {
	// Worker identifies the panicking worker (shard or stage-shard index;
	// 0 on single-threaded paths).
	Worker int
	// Cause is the recovered panic value, wrapped as an error.
	Cause error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("fault: worker %d panicked: %v", e.Worker, e.Cause)
}

// Unwrap exposes the cause for errors.Is (e.g. ErrInjected).
func (e *WorkerError) Unwrap() error { return e.Cause }

// JoinError is the terminal error of a supervised join: the last failure
// after the retry budget was exhausted, with the restart count that led
// there.
type JoinError struct {
	// Restarts is how many recoveries were attempted before giving up.
	Restarts int
	// Cause is the final failure.
	Cause error
}

func (e *JoinError) Error() string {
	return fmt.Sprintf("fault: join failed terminally after %d restart(s): %v", e.Restarts, e.Cause)
}

func (e *JoinError) Unwrap() error { return e.Cause }

// AsError converts a recovered panic value to an error. String panic values
// are the framework's documented lifecycle panics and must NOT be converted
// — callers re-panic those; this helper is for the remaining values.
func AsError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", r)
}

// Lifecycle reports whether a recovered panic value is a documented
// lifecycle panic (API misuse), which supervision must re-panic untouched.
// All lifecycle panics in this codebase are plain strings.
func Lifecycle(r any) bool {
	_, ok := r.(string)
	return ok
}

// Backoff is the supervisor's restart schedule: jittered exponential delays
// Base·2^attempt capped at Cap, for at most Retries attempts. The jitter is
// drawn from a seeded source and Sleep is injectable, so recovery tests run
// deterministically and without real sleeping.
type Backoff struct {
	Base    time.Duration
	Cap     time.Duration
	Retries int
	Seed    int64
	// Sleep replaces time.Sleep when non-nil (tests).
	Sleep func(time.Duration)

	rng *rand.Rand
}

// DefaultBackoff is the supervisor default: 5 restarts, 10ms..1s.
func DefaultBackoff() Backoff {
	return Backoff{Base: 10 * time.Millisecond, Cap: time.Second, Retries: 5, Seed: 1}
}

// Wait sleeps the attempt's jittered delay (attempt counts from 0). The
// jitter is the "equal jitter" scheme: half the exponential delay fixed,
// half uniform, so restarts never synchronize but stay bounded below.
func (b *Backoff) Wait(attempt int) {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.Seed))
	}
	d := b.Base
	if d <= 0 {
		d = 10 * time.Millisecond
	}
	for i := 0; i < attempt && d < b.Cap; i++ {
		d *= 2
	}
	if b.Cap > 0 && d > b.Cap {
		d = b.Cap
	}
	d = d/2 + time.Duration(b.rng.Int63n(int64(d/2)+1))
	if b.Sleep != nil {
		b.Sleep(d)
		return
	}
	time.Sleep(d)
}

// TupleRec is the serialized form of one stream.Tuple.
type TupleRec struct {
	TS    stream.Time
	Seq   uint64
	Src   int
	Delay stream.Time
	Attrs []float64
}

// TupleTable dedupes *stream.Tuple pointers during checkpoint encoding:
// every serializer registers the tuples it references and stores int32 ids;
// a tuple shared by several windows (band replicas, broadcast copies,
// partials) is recorded once and restored as one shared pointer.
type TupleTable struct {
	ids  map[*stream.Tuple]int32
	Recs []TupleRec
}

// NewTupleTable creates an empty table.
func NewTupleTable() *TupleTable {
	return &TupleTable{ids: make(map[*stream.Tuple]int32)}
}

// ID registers t (if new) and returns its id. Nil maps to -1.
func (tt *TupleTable) ID(t *stream.Tuple) int32 {
	if t == nil {
		return -1
	}
	if id, ok := tt.ids[t]; ok {
		return id
	}
	id := int32(len(tt.Recs))
	tt.ids[t] = id
	tt.Recs = append(tt.Recs, TupleRec{TS: t.TS, Seq: t.Seq, Src: t.Src, Delay: t.Delay, Attrs: t.Attrs})
	return id
}

// TupleArena materializes the table's records on restore: one *stream.Tuple
// per record, shared across every state slice that references the id.
type TupleArena struct {
	tuples []*stream.Tuple
}

// NewTupleArena builds the arena from serialized records.
func NewTupleArena(recs []TupleRec) *TupleArena {
	a := &TupleArena{tuples: make([]*stream.Tuple, len(recs))}
	for i, r := range recs {
		a.tuples[i] = &stream.Tuple{TS: r.TS, Seq: r.Seq, Src: r.Src, Delay: r.Delay, Attrs: r.Attrs}
	}
	return a
}

// Tuple returns the shared pointer for id (-1 → nil).
func (a *TupleArena) Tuple(id int32) *stream.Tuple {
	if id < 0 {
		return nil
	}
	return a.tuples[id]
}

// Len returns the number of materialized tuples.
func (a *TupleArena) Len() int { return len(a.tuples) }
