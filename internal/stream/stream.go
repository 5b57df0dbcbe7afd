// Package stream defines the tuple model and logical time base shared by
// every operator in the quality-driven disorder handling framework.
//
// All timestamps are logical milliseconds (type Time). The pipeline is driven
// purely by tuple arrival order, never by the wall clock, which makes every
// experiment deterministic and lets long stream horizons replay in
// microseconds of real time.
package stream

import (
	"fmt"
	"sort"
)

// Time is a logical timestamp or duration in milliseconds.
type Time int64

// Common durations, in logical milliseconds.
const (
	Millisecond Time = 1
	Second      Time = 1000
	Minute      Time = 60 * Second
)

// String formats a Time as seconds with millisecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%d.%03ds", t/Second, t%Second)
}

// Tuple is a single stream element. A tuple is identified by the stream it
// belongs to (Src, an index in [0,m)), its application timestamp TS assigned
// at the data source, and its arrival sequence number Seq which records the
// physical arrival order at the operator front-end.
//
// Attrs holds the payload attributes. Both integer join keys and continuous
// values (coordinates, readings) are stored as float64; equi-join predicates
// hash the raw bits, so exact integer keys compare exactly.
//
// Delay is the disorder-handling annotation delay(e) = iT − e.ts computed by
// the K-slack component when the tuple first arrives (Sec. IV-B of the
// paper); it rides along through the Synchronizer to the join operator and
// the Tuple-Productivity Profiler.
type Tuple struct {
	TS    Time
	Seq   uint64
	Src   int
	Delay Time
	Attrs []float64
}

// Attr returns attribute i, or 0 if the tuple has fewer attributes. The
// forgiving behaviour keeps hand-written example predicates short.
func (t *Tuple) Attr(i int) float64 {
	if i < 0 || i >= len(t.Attrs) {
		return 0
	}
	return t.Attrs[i]
}

// String renders a tuple compactly for debugging and test failure messages.
func (t *Tuple) String() string {
	return fmt.Sprintf("S%d@%d%v", t.Src, t.TS, t.Attrs)
}

// Less is the canonical (TS, Seq) tuple order shared by every component that
// sorts or buffers tuples (K-slack, Synchronizer, windows): timestamp order
// with ties broken by arrival sequence.
func Less(a, b *Tuple) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	return a.Seq < b.Seq
}

// Result is one join result: a combination of exactly one tuple per input
// stream. TS is the maximum timestamp among deriving tuples, per the MSWJ
// semantics in Sec. II-A.
//
// A Result handed to a sink is the sink's to keep: Tuples is never reused
// or overwritten by the operator. It is capacity-clipped (len == cap), so
// appending to it copies, and it may share a backing block of at most
// 512 bytes with neighbouring results — retaining one result keeps that block,
// and the tuples it points to, reachable.
type Result struct {
	TS     Time
	Tuples []*Tuple
}

// NewResult assembles a Result from the deriving tuples, computing the
// result timestamp as the maximum input timestamp.
func NewResult(tuples []*Tuple) Result {
	r := Result{Tuples: tuples}
	for _, t := range tuples {
		if t.TS > r.TS {
			r.TS = t.TS
		}
	}
	return r
}

// Batch is an in-memory stream fragment in arrival order.
type Batch []*Tuple

// Clone returns a deep copy of the batch. Tuples themselves are copied so the
// clone can be annotated (Delay) independently.
func (b Batch) Clone() Batch {
	out := make(Batch, len(b))
	for i, t := range b {
		cp := *t
		cp.Attrs = append([]float64(nil), t.Attrs...)
		out[i] = &cp
	}
	return out
}

// MaxTS returns the maximum timestamp in the batch, or 0 for an empty batch.
func (b Batch) MaxTS() Time {
	var max Time
	for _, t := range b {
		if t.TS > max {
			max = t.TS
		}
	}
	return max
}

// SortByTS stably sorts the batch by timestamp, preserving arrival order
// among equal timestamps.
func (b Batch) SortByTS() {
	sort.SliceStable(b, func(i, j int) bool { return b[i].TS < b[j].TS })
}

// Interleave merges several per-stream batches into a single arrival-ordered
// batch using the per-tuple Seq numbers, which generators assign globally.
// It is how multi-stream datasets are replayed through the framework.
func Interleave(streams ...Batch) Batch {
	var total int
	for _, s := range streams {
		total += len(s)
	}
	out := make(Batch, 0, total)
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// SortedByTS returns a copy of the batch globally ordered by (TS, Seq). The
// oracle evaluates joins on this ordering to obtain true results.
func (b Batch) SortedByTS() Batch {
	out := make(Batch, len(b))
	copy(out, b)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Disordered reports whether the batch contains at least one out-of-order
// tuple, i.e. a tuple whose timestamp is smaller than that of an earlier
// arrival from the same stream. Src is a dense index in [0,m), so per-stream
// state lives in small slices (stack-allocated for m ≤ 8) rather than
// per-call maps.
func (b Batch) Disordered() bool {
	var hiBuf [8]Time
	var seenBuf [8]bool
	hi, seen := hiBuf[:], seenBuf[:]
	for _, t := range b {
		s := t.Src
		for s >= len(hi) {
			hi = append(hi, 0)
			seen = append(seen, false)
		}
		if seen[s] && t.TS < hi[s] {
			return true
		}
		if !seen[s] || t.TS > hi[s] {
			hi[s] = t.TS
			seen[s] = true
		}
	}
	return false
}

// MaxDelay returns the maximum delay(e) = iT − e.ts over the batch, along
// with the per-stream maxima indexed by Src (length = max Src + 1). It
// matches the definition in Sec. II-A of the paper.
func (b Batch) MaxDelay() (Time, []Time) {
	var localBuf [8]Time
	var seenBuf [8]bool
	localT, seen := localBuf[:0], seenBuf[:0]
	per := make([]Time, 0, 8)
	var max Time
	for _, t := range b {
		s := t.Src
		for s >= len(localT) {
			localT = append(localT, 0)
			seen = append(seen, false)
			per = append(per, 0)
		}
		if !seen[s] || t.TS > localT[s] {
			localT[s] = t.TS
			seen[s] = true
		}
		d := localT[s] - t.TS
		if d > per[s] {
			per[s] = d
		}
		if d > max {
			max = d
		}
	}
	return max, per
}
