package feedback

// Protocol message types for distributed deployments. The feedback loop is
// global: one driver observes arrivals, runs the profiler/monitor/policy,
// and decides one K per scope at every adaptation boundary. K sizes the
// driver's K-slack buffers only, so it never reaches a worker. When the
// workers live in other processes (internal/net), the adaptation boundary
// travels as the messages below, in-band within the tuple stream:
// BarrierMsg quiesces a worker — everything sent before it has been
// processed when the matching BarrierAck returns. The ack carries the
// worker's shard.Out (per-arrival n^on(e) counts and materialized
// results), which the driver merges in deterministic (arrival, shard)
// order and replays into the loop, as the in-process runtime does. One
// boundary therefore costs one round-trip, not a stop-the-world.
//
// The structs here are the protocol's vocabulary; internal/net owns the
// byte encoding.

import "repro/internal/stream"

// BarrierMsg asks a worker to quiesce and report its interval deltas. Seq
// numbers barriers per session, starting at 1; OutT is the driver's global
// watermark onT at the boundary (the output-progress anchor DecideAt uses).
type BarrierMsg struct {
	Seq  uint64
	OutT stream.Time
}

// BarrierAck heads a worker's reply to BarrierMsg; on the wire the
// worker's shard.Out follows it: per-arrival result counts, indexed by the
// driver's arrival counter, and any materialized results buffered since
// the previous barrier. Failed/Err report a contained worker fault; the worker keeps acking
// barriers after a fault (in drain mode) so the driver's quiesce protocol
// never deadlocks — exactly the in-process worker contract.
type BarrierAck struct {
	Seq    uint64
	Failed bool
	Err    string
}
