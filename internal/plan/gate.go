package plan

// The shell's exactly-once delivery gate. Every replay the shell runs —
// same-shape recovery from a checkpoint, a migration into another shape —
// re-produces results, count chunks and adaptation events the caller has
// already observed. The gate sits between the executor's callbacks and the
// caller's and lets each one through exactly once, by two rules:
//
//   - Prefix counters, for same-shape recovery. The replay re-runs the same
//     deterministic engine from a checkpoint, so it re-emits a prefix of the
//     original sequence, in order; a produced/delivered pair per kind
//     suppresses exactly that prefix. They cover count chunks and
//     adaptation events too, so a count-only join never has to
//     materialize its results.
//   - One filter per migration, for cross-shape replay. Another shape emits
//     the same multiset in a different order, so the gate cannot count;
//     instead each migration's boundary checkpoint decides which results
//     the old shape had sealed (filter). Kept only while the shell
//     re-plans.

import (
	"math"
	"slices"

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

	replan    bool            // the shell re-plans: every result materializes and meets the filters
	filters   []*filter       // the open migrations' rules, in boundary order
	maxTS     stream.Time     // the newest filter's maxTS, the largest; MinInt64 with none open
	out       int64           // results delivered while re-planning
	migrating bool            // a migration is under way: the counters pause, the hooks stay silent
	owed      []stream.Result // what its replay delivers once the move commits, cloned
	supp      int64           // what its replay suppressed
}

// meta is the counter state a checkpoint freezes: restoring rewinds the
// produced counters to it, and the delivered ones, which never rewind,
// gate out the replayed prefix.
type meta struct{ produced, chunks, adapts int64 }

func (g *gate) mark() meta { return meta{g.produced, g.prodChunks, g.prodAdapts} }

// rewind restores the produced counters for a same-shape recovery. A
// migration it interrupts drops its filter and what its replay owed: the
// recovered old shape delivers those results itself.
func (g *gate) rewind(m meta) {
	g.produced, g.prodChunks, g.prodAdapts = m.produced, m.chunks, m.adapts
	if g.migrating {
		g.migrating, g.owed = false, nil
		g.open(g.filters[:len(g.filters)-1])
	}
}

func (g *gate) result(r stream.Result) {
	if !g.migrating {
		if g.produced++; g.produced <= g.delivered {
			return
		}
		g.delivered++
	}
	switch {
	case !g.replan:
		if g.emit != nil {
			g.emit(r)
		}
	case r.TS <= g.maxTS && g.sealed(r):
		if g.migrating {
			g.supp++
		}
	case g.migrating:
		g.owed = append(g.owed, r.Clone()) // r is borrowed; the commit delivers it later
	default:
		g.deliver(r)
	}
}

// deliver hands a re-planning shell's result to the caller; the count sink
// sees one count per result.
func (g *gate) deliver(r stream.Result) {
	g.out++
	if g.counts != nil {
		g.counts(r.TS, 1)
	}
	if g.emit != nil {
		g.emit(r)
	}
}

func (g *gate) sealed(r stream.Result) bool {
	for _, f := range g.filters {
		if f.sealed(r) {
			return true
		}
	}
	return false
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

// begin starts a migration under its filter.
func (g *gate) begin(f *filter) {
	g.migrating, g.supp = true, 0
	g.open(append(g.filters, f))
}

// commit completes a migration: what its replay owed reaches the caller.
// It returns how many results the replay delivered and suppressed.
func (g *gate) commit() (delivered, suppressed int64) {
	owed := g.owed
	g.migrating, g.owed = false, nil
	for _, r := range owed {
		g.deliver(r)
	}
	return int64(len(owed)), g.supp
}

// prune closes every filter whose boundary lies below horizon: every
// result an executor still emits, and every later replay's, has a member
// at or above it (supervise.go's prune), so its TS exceeds the filter's.
func (g *gate) prune(horizon stream.Time) {
	g.open(slices.DeleteFunc(g.filters, func(f *filter) bool { return f.maxTS < horizon }))
}

func (g *gate) open(fs []*filter) {
	g.filters, g.maxTS = fs, math.MinInt64
	if n := len(fs); n > 0 {
		g.maxTS = fs[n-1].maxTS // boundaries only advance
	}
}

// filter is one migration's suppression rule. At the quiesced boundary the
// old shape had emitted every result whose derivation was complete; one
// still in flight contains a sub-assignment it held — a K-slack or
// synchronizer tuple, or an event at a tree stage's side, which covers
// exactly that side's streams and so is contained in a result only as its
// own unprocessed partial. A result, live or replayed, is suppressed iff
// r.TS ≤ maxTS, every member is a replayed pre-boundary arrival, and no
// held sub-assignment is contained in it: the old shape delivered it, or
// had already lost it.
type filter struct {
	maxTS stream.Time
	// pre maps each replayed arrival to the held sub-assignments anchored
	// at it (each at its first member).
	pre map[member][]heldPart
}

// member identifies a tuple across shapes and the wire. A result holds
// stream i's member at position i.
type member struct {
	src int
	seq uint64
}

// heldPart is a held sub-assignment: its members.
type heldPart []member

// newFilter builds a migration's rule from its boundary: the shell clock
// now, the arrivals the replay re-pushes (the log from horizon h on), and
// the held sub-assignments of the boundary checkpoint.
func newFilter(now stream.Time, log []*stream.Tuple, h stream.Time, held []heldPart) *filter {
	f := &filter{maxTS: now, pre: make(map[member][]heldPart)}
	for _, t := range log {
		if t.TS >= h {
			f.pre[member{t.Src, t.Seq}] = nil
		}
	}
	for _, p := range held {
		f.pre[p[0]] = append(f.pre[p[0]], p)
	}
	return f
}

func (f *filter) sealed(r stream.Result) bool {
	if r.TS > f.maxTS {
		return false
	}
	for _, t := range r.Tuples {
		if t == nil {
			continue
		}
		held, ok := f.pre[member{t.Src, t.Seq}]
		if !ok {
			return false
		}
		for _, p := range held {
			if p.in(r) {
				return false
			}
		}
	}
	return true
}

func (p heldPart) in(r stream.Result) bool {
	for _, m := range p {
		if t := r.Tuples[m.src]; t == nil || t.Seq != m.seq {
			return false
		}
	}
	return true
}
