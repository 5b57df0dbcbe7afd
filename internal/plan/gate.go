package plan

// The shell's exactly-once delivery gate. Every replay the shell runs —
// same-shape recovery from a checkpoint, a migration into another shape —
// re-produces results, count chunks and adaptation events the caller has
// already observed. The gate sits between the executor's callbacks and the
// caller's and lets each one through exactly once. It keys deliveries two
// ways:
//
//   - Prefix counters, for same-shape recovery. The replay re-runs the same
//     deterministic engine from a checkpoint, so it re-emits a prefix of the
//     original sequence, in order; a produced/delivered pair per kind
//     suppresses exactly that prefix. They cover count chunks and
//     adaptation events too, so a count-only join never has to
//     materialize its results.
//   - Result identities, for migration. Another shape emits the same
//     multiset in a different order, so the gate records the identity of
//     every delivered result — each member's (Src, Seq) in position order,
//     nil members included — and a migration's replay suppresses up to the
//     recorded multiplicity. Kept only while the shell re-plans.

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/stream"
)

type gate struct {
	emit   join.EmitFunc
	counts join.CountEmitFunc
	adapt  func(core.AdaptEvent)

	produced, delivered     int64
	prodChunks, delivChunks int64
	prodAdapts, delivAdapts int64
	boundary                bool // an adaptation event was delivered since the shell last looked

	ids       identities // nil unless the shell re-plans
	out       int64      // results delivered through the identity records
	migrating bool       // a migration is under way: the counters pause, the hooks stay silent
	replaying bool       // its replay is under way: recorded identities are matched
	repOut    int64      // results the current replay delivered
	repSupp   int64      // regenerations the current replay suppressed
}

// meta is the counter state a checkpoint freezes: restoring rewinds the
// produced counters to it, and the delivered ones, which never rewind,
// gate out the replayed prefix.
type meta struct{ produced, chunks, adapts int64 }

func (g *gate) mark() meta { return meta{g.produced, g.prodChunks, g.prodAdapts} }

func (g *gate) rewind(m meta) {
	g.produced, g.prodChunks, g.prodAdapts = m.produced, m.chunks, m.adapts
	g.migrating, g.replaying = false, false
}

func (g *gate) result(r stream.Result) {
	if !g.migrating {
		if g.produced++; g.produced <= g.delivered {
			return
		}
		g.delivered++
	}
	if g.ids != nil {
		if g.ids.suppress(r, g.replaying) {
			if g.replaying {
				g.repSupp++
			}
			return
		}
		if g.replaying {
			g.repOut++
		}
		g.out++
		if g.counts != nil {
			g.counts(r.TS, 1)
		}
	}
	if g.emit != nil {
		g.emit(r)
	}
}

func (g *gate) chunk(ts stream.Time, n int64) {
	if g.migrating {
		return
	}
	if g.prodChunks++; g.prodChunks > g.delivChunks {
		g.delivChunks++
		if g.counts != nil {
			g.counts(ts, n)
		}
	}
}

func (g *gate) adaptation(ev core.AdaptEvent) {
	if g.migrating {
		return
	}
	if g.prodAdapts++; g.prodAdapts > g.delivAdapts {
		g.delivAdapts++
		g.boundary = true
		if g.adapt != nil {
			g.adapt(ev)
		}
	}
}

// restart re-bases the produced counters on a migrated-to executor: nothing
// it emits was delivered before, whatever the old one still owed.
func (g *gate) restart() {
	g.produced, g.prodChunks, g.prodAdapts = g.delivered, g.delivChunks, g.delivAdapts
}

// beginReplay starts a migration's replay.
func (g *gate) beginReplay() {
	g.migrating, g.replaying = true, true
	g.repOut, g.repSupp = 0, 0
	g.ids.beginReplay()
}

// identities is the multiset of delivered result identities, specialised by
// key width.
type identities interface {
	// suppress reports whether r must not be delivered and records it
	// otherwise. During a replay a recorded identity is suppressed up to its
	// recorded multiplicity. Outside one, a recorded identity is always
	// suppressed: the migrated-to shape's release schedule can defer a
	// replayed derivation past the replay (tree stages hold results until a
	// later clock advance), and an engine delivers each identity at most once
	// per run — one trigger tuple per member combination — so a live
	// re-emission is always such a leftover.
	suppress(r stream.Result, replaying bool) bool
	beginReplay()
	// prune drops every record with a member older than horizon: no replay
	// reaches below it, so the record can never suppress anything again.
	prune(horizon stream.Time)
	len() int
}

type idEntry struct {
	minTS stream.Time // the smallest member timestamp, the prune key
	n     int32       // recorded deliveries
	used  int32       // of those, matched in the current replay
}

type idSet[K comparable] struct {
	seen map[K]idEntry
	peak int // the most records seen has held since it was built
	key  func(stream.Result) (K, stream.Time)
}

func (s *idSet[K]) suppress(r stream.Result, replaying bool) bool {
	k, minTS := s.key(r)
	e, ok := s.seen[k]
	switch {
	case ok && !replaying:
		return true
	case ok && e.used < e.n:
		e.used++
		s.seen[k] = e
		return true
	case !ok || minTS < e.minTS:
		e.minTS = minTS
	}
	e.n++
	s.seen[k] = e
	return false
}

func (s *idSet[K]) beginReplay() {
	for k, e := range s.seen {
		if e.used != 0 {
			e.used = 0
			s.seen[k] = e
		}
	}
}

func (s *idSet[K]) prune(horizon stream.Time) {
	s.peak = max(s.peak, len(s.seen)) // records only grow between prunes
	for k, e := range s.seen {
		if e.minTS < horizon {
			delete(s.seen, k)
		}
	}
	// A map never shrinks: once the survivors fill less than a quarter of
	// the table the peak sized, move them to a table sized for them. A
	// steady feed prunes about half the records per period and keeps its
	// table.
	if n := len(s.seen); 4*n < s.peak {
		seen := make(map[K]idEntry, n)
		for k, e := range s.seen {
			seen[k] = e
		}
		s.seen, s.peak = seen, n
	}
}

func (s *idSet[K]) len() int { return len(s.seen) }

// newIdentities builds the identity records for results of m members: a
// fixed-width array key up to eight members, a byte-string key beyond.
func newIdentities(m int) identities {
	switch {
	case m <= 4:
		return &idSet[[5]uint64]{seen: map[[5]uint64]idEntry{}, key: packKey[[5]uint64]}
	case m <= 8:
		return &idSet[[9]uint64]{seen: map[[9]uint64]idEntry{}, key: packKey[[9]uint64]}
	}
	return &idSet[string]{seen: map[string]idEntry{}, key: wideKey}
}

type packedKey interface{ [5]uint64 | [9]uint64 }

// packKey packs a result of at most len(K)−1 members: one word per member's
// Seq, then one byte per member in the last word — Src+2, 1 for a nil
// member, 0 past the last one. Src is a stream index below m ≤ 8 in every
// result an engine emits, so the byte holds it exactly.
func packKey[K packedKey](r stream.Result) (k K, minTS stream.Time) {
	minTS = r.TS
	var srcs uint64
	for i, t := range r.Tuples {
		b := uint64(1)
		if t != nil {
			k[i] = t.Seq
			b = uint64(t.Src) + 2
			minTS = min(minTS, t.TS)
		}
		srcs |= b << (8 * i)
	}
	k[len(k)-1] = srcs
	return k, minTS
}

// wideKey encodes a result of any width: per member a 0 byte for nil, or a
// 1 byte followed by Src and Seq as eight bytes each.
func wideKey(r stream.Result) (string, stream.Time) {
	minTS := r.TS
	b := make([]byte, 0, 17*len(r.Tuples))
	for _, t := range r.Tuples {
		if t == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint64(b, uint64(t.Src))
		b = binary.LittleEndian.AppendUint64(b, t.Seq)
		minTS = min(minTS, t.TS)
	}
	return string(b), minTS
}
