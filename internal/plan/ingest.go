package plan

// Bounded ingest for the supervised runtime: the K-slack buffers are the
// only state that grows with disorder rather than with the windows, so the
// ingest bound is expressed over their total occupancy (BufferedTuples).

import (
	"repro/internal/fault"
	"repro/internal/stream"
)

// IngestPolicy selects what the supervised runtime does with an arrival
// when the buffered-tuple occupancy is at the configured bound.
type IngestPolicy int

const (
	// IngestBlock admits every arrival. Push is synchronous — the caller is
	// the producer, and the time Push spends processing IS the backpressure;
	// the bound is advisory and never drops or refuses anything.
	IngestBlock IngestPolicy = iota
	// IngestError refuses the arrival: TryPush returns fault.ErrOverload and
	// counts the tuple in Dropped. Refused tuples never enter the join (and
	// never enter the recovery log), so a replay after a crash reproduces
	// exactly the admitted sequence.
	IngestError
	// IngestShed admits the arrival, then evicts the lowest-productivity
	// buffered tuples (ShedWorst) until the occupancy is back at the bound.
	// Every eviction is accounted with the feedback loop, so RecallEstimate
	// reflects the results the shed tuples would have produced. Eviction
	// order is deterministic, so shed decisions replay identically during
	// recovery.
	IngestShed
)

// IngestConfig bounds the supervised runtime's ingest. The zero value is
// unbounded.
type IngestConfig struct {
	// MaxBuffered is the K-slack occupancy bound; 0 means unbounded.
	MaxBuffered int
	// Policy is the overload behavior at the bound.
	Policy IngestPolicy
}

// CheckTuple refuses with fault.ErrInvalidTuple an arrival whose Src names
// none of the m streams or whose TS is negative: the clocks T^sync and onT
// start at 0, so a negative timestamp would look late forever. Every front
// door calls it before a log, a buffer or a statistics feeder sees the
// tuple.
func CheckTuple(t *stream.Tuple, m int) error {
	if t.Src < 0 || t.Src >= m || t.TS < 0 {
		return fault.ErrInvalidTuple
	}
	return nil
}
