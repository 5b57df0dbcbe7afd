package qdhj

// Checkpoint/restore at the public seam. A Snapshot freezes a join's
// complete deterministic state — per-stream K-slack window rings, window
// contents, synchronizer registers, per-scope K decisions, ADWIN-sized
// delay histories, and the feedback-loop accumulators — tagged with a
// signature of the deployment (condition, windows, shape, policy). Restore
// rebuilds a join that continues exactly where the snapshot left off:
// replaying the same suffix of arrivals yields the same result multiset and
// the same K trajectory as the uninterrupted run (DESIGN.md §10).
//
// Snapshots serialize with encoding/gob: Snapshot.Encode writes a versioned
// envelope, ReadSnapshot reads one back. The format embeds the deployment
// signature, so restoring into a differently shaped join fails with
// ErrRestoreMismatch instead of silently rebuilding wrong state.

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/plan"
)

// Snapshot is a point-in-time, serializable checkpoint of a Join. Obtain
// one with (*Join).Checkpoint, persist it with Encode/ReadSnapshot, and
// rebuild a join from it with Restore.
type Snapshot struct {
	state   plan.ExecState
	dropped int64
}

// Signature returns the deployment signature the snapshot is bound to —
// the same string Restore compares against its target.
func (s *Snapshot) Signature() string { return s.state.Sig }

// snapshotWire is the gob envelope; the magic and version gate decoding.
type snapshotWire struct {
	Magic   string
	Version int
	State   plan.ExecState
	Dropped int64
}

const (
	snapshotMagic   = "qdhj-snapshot"
	snapshotVersion = 1
)

// Encode serializes the snapshot to w with encoding/gob.
func (s *Snapshot) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(snapshotWire{
		Magic:   snapshotMagic,
		Version: snapshotVersion,
		State:   s.state,
		Dropped: s.dropped,
	})
}

// ReadSnapshot deserializes a snapshot previously written by Encode.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var wire snapshotWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("qdhj: reading snapshot: %w", err)
	}
	if wire.Magic != snapshotMagic {
		return nil, fmt.Errorf("qdhj: not a snapshot stream (magic %q)", wire.Magic)
	}
	if wire.Version != snapshotVersion {
		return nil, fmt.Errorf("qdhj: snapshot version %d, this library reads %d", wire.Version, snapshotVersion)
	}
	return &Snapshot{state: wire.State, dropped: wire.Dropped}, nil
}

// Checkpoint captures the join's state between two Push calls. The join
// keeps running — checkpointing is non-destructive — and a join restored
// from the snapshot produces, for the same suffix of arrivals, a result
// multiset bit-for-bit equal to this join's. The snapshot is signed with
// the deployed plan: after a live migration under WithOnlineReplan, restore
// it with WithPlan(j.CurrentPlan()).
//
// On supervised joins the capture itself runs under supervision (a worker
// failure surfacing mid-capture triggers a normal recovery), and on tree
// deployments a capture between adaptation boundaries preserves the result
// multiset exactly while pinning the K trajectory from the next boundary
// on; flat deployments are exact at any point. Returns ErrClosed after
// Close and the terminal *JoinError after supervision gave up.
func (j *Join) Checkpoint() (*Snapshot, error) {
	if j.rt != nil {
		st, err := j.rt.Checkpoint()
		if err != nil {
			return nil, err
		}
		return &Snapshot{state: st, dropped: j.rt.Dropped()}, nil
	}
	if j.closed {
		return nil, ErrClosed
	}
	st, err := plan.Checkpoint(j.g, j.cfg, j.ex)
	if err != nil {
		return nil, err
	}
	return &Snapshot{state: st}, nil
}

// Restore rebuilds a join from a snapshot. cond, windows, opt and jopts
// must describe the same deployment that produced the snapshot — same
// condition, windows, policy and plan shape; the snapshot's embedded
// signature is checked and a mismatch returns ErrRestoreMismatch. Sinks,
// hooks and supervision settings are not part of the signature: a restored
// join may install different callbacks, add or drop supervision, or change
// the ingest bound.
//
// Generic (arbitrary-code) predicates contribute only their count to the
// signature — their bodies are not serializable, so passing a condition
// with different predicate code is undetectable and on the caller.
func Restore(snap *Snapshot, cond *Condition, windows []Time, opt Options, jopts ...JoinOption) (*Join, error) {
	jo := collect(hostRestore, jopts)
	cfg := execConfig(opt, jo)
	g := jo.graphFor(cond, windows)
	j := &Join{g: g, cfg: cfg, hasSink: jo.emit != nil}
	if jo.supervised {
		sup, err := plan.NewSupervisedRestore(g, cfg, jo.scf, snap.state, snap.dropped)
		if err != nil {
			return nil, err
		}
		j.rt = sup
		j.ex = sup
		return j, nil
	}
	ex, err := plan.Restore(g, cfg, snap.state)
	if err != nil {
		return nil, err
	}
	j.ex = ex
	return j, nil
}
