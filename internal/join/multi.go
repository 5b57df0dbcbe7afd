package join

// The shared-window multi-query probe kernel. A Multi owns ONE set of
// sliding windows (indexed on the union of what the registered queries'
// plans probe) and executes N queries' probes against it: every
// arrival expires and inserts ONCE regardless of query count, and one probe
// pass per arrival fans result counts (and materialized results) out to all
// registered queries.
//
// # Prefix grouping
//
// Queries are grouped into *probe classes* by their equi/band skeleton — the
// ordered (Equis, Bands) lists, which are all the planner's pickNext and
// lookup assignment ever consult. Every member of a class therefore has the
// IDENTICAL compiled probe plan (step order, index probes, residual
// equi/band filters, equivalence-class rewrite): the class enumerates
// candidates once and members diverge only at their generic residual checks,
// evaluated per candidate under a per-member alive bitmask. A branch is
// pruned as soon as no member remains alive on it, so per-arrival probe cost
// grows with the number of distinct probe prefixes, not with query count.
//
// Within a class, members whose FULL condition is identical (same generics,
// as established by the caller-supplied residual signature) collapse into
// one *residual class*: their checks run once and the resulting count is
// credited to every member — N identical queries cost one probe total.
//
// # Bit-for-bit equivalence with standalone operators
//
// Each member's result stream (order included) and per-arrival counts are
// exactly those of a standalone Operator compiled from its condition over
// the same release sequence:
//
//   - the step order depends only on equi/band predicates (pickNext never
//     reads generics), so the shared class plan IS each member's standalone
//     plan;
//   - generic checks are assigned to the earliest step binding all their
//     streams — the same rule buildPlan applies — so members' residuals run
//     at the same levels as standalone, and checks only prune enumeration,
//     never reorder it;
//   - the counting fast path is gated per residual class exactly as the
//     standalone gate (countable tail, no pending generic checks, no emit
//     sink), and counting and enumeration agree on counts by the operator's
//     own invariant.
//
// The per-step tailFused specialization of the single-query kernel is not
// replicated here; fused steps fall back to the countable product or plain
// enumeration, which preserves counts and order.

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/stream"
	"repro/internal/window"
)

// maxResidualClasses caps the per-class alive bitmask width; a skeleton with
// more distinct residual classes overflows into a sibling class sharing the
// same windows (enumeration is then repeated per sibling, counts unchanged).
const maxResidualClasses = 64

// MultiMember is one query registered with a Multi kernel. It is created by
// Add and identifies the query in Remove/SetEmit calls.
type MultiMember struct {
	cond        *Condition
	resSig      string
	emit        EmitFunc
	countEmit   CountEmitFunc
	onProcessed ProcessedFunc
	results     int64
	res         *mres
}

// Results returns the number of results this member's query has derived.
func (mm *MultiMember) Results() int64 { return mm.results }

// mres is one residual class: members with bit-identical full conditions.
// Checks evaluate once per candidate for the whole class.
type mres struct {
	sig     string
	cond    *Condition
	progs   []*Prog // parallel to cond.Generics; nil → interpreted Eval
	members []*MultiMember
	// checks[src][lvl] lists generic indexes that become fully bound at
	// probe level lvl of the class plan for arriving stream src — the same
	// assignment buildPlan computes for the standalone operator.
	checks [][][]int
	// chkAfter[src][lvl] reports whether any check runs at level ≥ lvl; it
	// is the per-residual-class analog of the standalone countableTail
	// generic gate.
	chkAfter [][]bool
}

// hasEmit reports whether any member materializes results; it disables the
// class counting fast path for this residual class, exactly as a standalone
// operator's emit sink does.
func (r *mres) hasEmit() bool {
	for _, mm := range r.members {
		if mm.emit != nil {
			return true
		}
	}
	return false
}

// mclass is one probe class: residual classes sharing an equi/band skeleton
// and therefore one candidate enumeration.
type mclass struct {
	skelSig string
	skel    *Condition
	plans   []plan
	cplans  []cplan
	res     []*mres
	// emitMask / chkAfterMask cache per-residual-class gates as bitmasks:
	// a residual class may take the counting fast path at (src, lvl) iff its
	// bit is clear in both.
	emitMask     uint64
	chkAfterMask [][]uint64 // [src][lvl]
	counts       []int64    // per-arrival result count per residual class
}

func (c *mclass) fullMask() uint64 {
	if len(c.res) >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(len(c.res))) - 1
}

// refreshMasks recomputes the cached gate bitmasks after any membership or
// emit change.
func (c *mclass) refreshMasks(m int) {
	c.emitMask = 0
	for ri, r := range c.res {
		if r.hasEmit() {
			c.emitMask |= uint64(1) << uint(ri)
		}
	}
	c.chkAfterMask = make([][]uint64, m)
	for src := 0; src < m; src++ {
		levels := len(c.plans[src])
		c.chkAfterMask[src] = make([]uint64, levels+1)
		for lvl := 0; lvl <= levels; lvl++ {
			var mask uint64
			for ri, r := range c.res {
				if lvl < levels && r.chkAfter[src][lvl] {
					mask |= uint64(1) << uint(ri)
				}
			}
			c.chkAfterMask[src][lvl] = mask
		}
	}
	c.counts = make([]int64, len(c.res))
}

// Multi is the shared-window multi-query MSWJ kernel. Like Operator it is
// push-based, single-threaded, and expects mostly timestamp-ordered input
// (the Synchronizer's output); out-of-order residue follows lines 9–10 of
// Alg. 2 against the shared windows.
type Multi struct {
	m       int
	sizes   []stream.Time
	windows []*window.Window
	onT     stream.Time
	members []*MultiMember
	classes []*mclass

	processed  int64
	outOfOrder int64

	assignBuf []*stream.Tuple
	slab      TupleSlab
}

// NewMulti creates an empty shared kernel over len(sizes) streams; sizes[i]
// is the shared window extent W_i and must be positive. Queries attach with
// Add — before any tuple is processed — and detach with Remove at any time.
func NewMulti(sizes []stream.Time) *Multi {
	if len(sizes) < 2 {
		panic("join: Multi needs at least 2 streams")
	}
	return &Multi{
		m:         len(sizes),
		sizes:     append([]stream.Time(nil), sizes...),
		windows:   newWindows(sizes),
		assignBuf: make([]*stream.Tuple, len(sizes)),
	}
}

// M returns the number of input streams.
func (mo *Multi) M() int { return mo.m }

// Members returns the number of registered queries.
func (mo *Multi) Members() int { return len(mo.members) }

// HighWatermark returns onT, the maximum timestamp among received tuples.
func (mo *Multi) HighWatermark() stream.Time { return mo.onT }

// WindowLen returns the current cardinality of the shared window on stream i.
func (mo *Multi) WindowLen(i int) int { return mo.windows[i].Len() }

// Add registers one query. resSig is the caller's full-condition signature:
// two members carry equal signatures iff their conditions are semantically
// identical (the multi-query engine derives it from the predicate structure,
// tagging opaque closures per condition instance). Add seals the condition
// and must run before the kernel has processed any tuple: the shared windows
// are rebuilt with the union of the indexes all members' plans probe, which
// is only sound while they are empty. The engine guarantees this by keying shared
// kernels on their registration epoch.
func (mo *Multi) Add(cond *Condition, resSig string, emit EmitFunc, countEmit CountEmitFunc, onProcessed ProcessedFunc) *MultiMember {
	if cond == nil || cond.M != mo.m {
		panic("join: Multi.Add condition arity must match the kernel's stream count")
	}
	if mo.processed > 0 {
		panic("join: Multi.Add after processing started — shared windows cannot be re-indexed while populated; register at a fresh epoch")
	}
	cond.seal()
	mm := &MultiMember{cond: cond, resSig: resSig, emit: emit, countEmit: countEmit, onProcessed: onProcessed}
	mo.members = append(mo.members, mm)
	mo.rebuild()
	return mm
}

// Remove detaches a member: its residual class forgets it, an emptied
// residual class is dropped from its probe class (freeing the compiled
// residuals), and an emptied class is dropped entirely. The shared windows
// are left untouched — remaining queries keep probing them.
func (mo *Multi) Remove(mm *MultiMember) {
	if mm == nil || mm.res == nil {
		panic("join: Multi.Remove of an unknown or already-removed member")
	}
	r := mm.res
	found := false
	for i, other := range r.members {
		if other == mm {
			r.members = append(r.members[:i], r.members[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		panic("join: Multi.Remove of an unknown or already-removed member")
	}
	mm.res = nil
	for i, other := range mo.members {
		if other == mm {
			mo.members = append(mo.members[:i], mo.members[i+1:]...)
			break
		}
	}
	for ci, c := range mo.classes {
		owns := false
		for ri, rr := range c.res {
			if rr != r {
				continue
			}
			owns = true
			if len(r.members) == 0 {
				c.res = append(c.res[:ri], c.res[ri+1:]...)
			}
			break
		}
		if !owns {
			continue
		}
		if len(c.res) == 0 {
			mo.classes = append(mo.classes[:ci], mo.classes[ci+1:]...)
		} else {
			c.refreshMasks(mo.m)
		}
		return
	}
}

// SetEmit installs (or clears) a member's result sink; a non-nil sink
// disables the counting fast path for the member's residual class, exactly
// as on a standalone operator.
func (mo *Multi) SetEmit(mm *MultiMember, f EmitFunc) {
	if mm == nil || mm.res == nil {
		panic("join: Multi.SetEmit on an unknown or removed member")
	}
	mm.emit = f
	for _, c := range mo.classes {
		for _, r := range c.res {
			if r == mm.res {
				c.refreshMasks(mo.m)
				return
			}
		}
	}
}

// rebuild recomputes windows, classes and compiled plans from the current
// member list. Only called while the windows are empty.
func (mo *Multi) rebuild() {
	// Group members by skeleton into classes, then by residual signature
	// into residual classes, preserving registration order.
	mo.classes = nil
	for _, mm := range mo.members {
		mm.res = nil
		sk := SkeletonSig(mm.cond)
		var cls *mclass
		for _, c := range mo.classes {
			if c.skelSig != sk {
				continue
			}
			joined := false
			for _, r := range c.res {
				if r.sig == mm.resSig {
					r.members = append(r.members, mm)
					mm.res = r
					joined = true
					break
				}
			}
			if joined || len(c.res) < maxResidualClasses {
				cls = c
				break
			}
		}
		if cls == nil {
			skel := &Condition{
				M:     mm.cond.M,
				Equis: append([]EquiPredicate(nil), mm.cond.Equis...),
				Bands: append([]BandPredicate(nil), mm.cond.Bands...),
			}
			skel.seal()
			cls = &mclass{skelSig: sk, skel: skel}
			cls.plans = buildPlans(skel)
			mo.classes = append(mo.classes, cls)
		}
		if mm.res == nil {
			r := &mres{sig: mm.resSig, cond: mm.cond, progs: compileProgs(mm.cond), members: []*MultiMember{mm}}
			r.checks, r.chkAfter = placeChecks(mm.cond, cls.plans)
			cls.res = append(cls.res, r)
			mm.res = r
		}
	}
	// Rebuild the windows with the union of what the class plans probe, then
	// recompile every class against them and refresh masks.
	planSets := make([][]plan, len(mo.classes))
	for i, c := range mo.classes {
		planSets[i] = c.plans
	}
	mo.windows = newWindows(mo.sizes, planSets...)
	for _, c := range mo.classes {
		c.cplans = compilePlans(c.skel, c.plans, mo.windows)
		c.refreshMasks(mo.m)
	}
}

// placeChecks assigns each generic predicate of cond to the earliest probe
// level binding all its streams, per arriving stream, replicating
// buildPlan's assignment over the class's shared step order.
func placeChecks(cond *Condition, plans []plan) (checks [][][]int, chkAfter [][]bool) {
	m := cond.M
	checks = make([][][]int, m)
	chkAfter = make([][]bool, m)
	for src := 0; src < m; src++ {
		p := plans[src]
		checks[src] = make([][]int, len(p))
		chkAfter[src] = make([]bool, len(p))
		bound := make([]bool, m)
		bound[src] = true
		assigned := make([]bool, len(cond.Generics))
		for lvl := range p {
			bound[p[lvl].stream] = true
			for gi, g := range cond.Generics {
				if assigned[gi] {
					continue
				}
				all := true
				for _, gs := range g.Streams {
					if !bound[gs] {
						all = false
						break
					}
				}
				if all {
					assigned[gi] = true
					checks[src][lvl] = append(checks[src][lvl], gi)
				}
			}
		}
		pending := false
		for lvl := len(p) - 1; lvl >= 0; lvl-- {
			if len(checks[src][lvl]) > 0 {
				pending = true
			}
			chkAfter[src][lvl] = pending
		}
	}
	return checks, chkAfter
}

// Process consumes one tuple per Alg. 2 against the shared windows, fanning
// results out to every member. It mirrors Operator.Process/ProcessAt: one
// expire + insert per arrival, per-member productivity hooks in
// registration order.
func (mo *Multi) Process(e *stream.Tuple) {
	wm := mo.onT
	if e.TS > wm {
		wm = e.TS
	}
	mo.processed++
	if wm > mo.onT {
		mo.onT = wm
	}
	if e.TS >= wm {
		var nCross int64 = 1
		for j, w := range mo.windows {
			w.Expire(e.TS - w.Size())
			if j != e.Src {
				nCross *= int64(w.Len())
			}
		}
		for _, c := range mo.classes {
			for i := range c.counts {
				c.counts[i] = 0
			}
			for i := range mo.assignBuf {
				mo.assignBuf[i] = nil
			}
			mo.assignBuf[e.Src] = e
			mo.searchM(c, c.cplans[e.Src].steps, e.Src, 0, mo.assignBuf, c.fullMask())
		}
		// Credit counts and fire the count sinks before the insert, then the
		// productivity hooks after it — the standalone operator's order.
		for _, c := range mo.classes {
			for ri, r := range c.res {
				n := c.counts[ri]
				for _, mm := range r.members {
					mm.results += n
					if mm.countEmit != nil && n > 0 {
						mm.countEmit(e.TS, n)
					}
				}
			}
		}
		mo.windows[e.Src].Insert(e)
		for _, c := range mo.classes {
			for ri, r := range c.res {
				n := c.counts[ri]
				for _, mm := range r.members {
					if mm.onProcessed != nil {
						mm.onProcessed(e, nCross, n, true)
					}
				}
			}
		}
		return
	}
	// Out-of-order: no probe; insert into the shared window if still in the
	// scope [wm − W, wm].
	mo.outOfOrder++
	w := mo.windows[e.Src]
	w.Expire(wm - w.Size())
	if e.TS >= wm-w.Size() {
		w.Insert(e)
	}
	for _, c := range mo.classes {
		for _, r := range c.res {
			for _, mm := range r.members {
				if mm.onProcessed != nil {
					mm.onProcessed(e, 0, 0, false)
				}
			}
		}
	}
}

// searchM enumerates the class plan once for all alive residual classes,
// accumulating per-residual-class counts into c.counts and emitting
// materialized results for members with sinks. alive carries one bit per
// residual class; a branch is abandoned when every class has been pruned.
func (mo *Multi) searchM(c *mclass, steps []cstep, src, lvl int, assign []*stream.Tuple, alive uint64) {
	if lvl == len(steps) {
		for a := alive; a != 0; a &= a - 1 {
			ri := bits.TrailingZeros64(a)
			c.counts[ri]++
			r := c.res[ri]
			if c.emitMask&(uint64(1)<<uint(ri)) != 0 {
				for _, mm := range r.members {
					if mm.emit != nil {
						mm.emit(mo.slab.result(assign))
					}
				}
			}
		}
		return
	}
	cs := &steps[lvl]
	if cs.countableTail {
		// Residual classes with no pending generic checks and no emit sink
		// take the standalone counting fast path: one product, credited to
		// every eligible class at once.
		cnt := alive &^ (c.emitMask | c.chkAfterMask[src][lvl])
		if cnt != 0 {
			var prod int64 = 1
			for j := lvl; j < len(steps); j++ {
				if prod *= steps[j].ccount(assign); prod == 0 {
					break
				}
			}
			if prod != 0 {
				for a := cnt; a != 0; a &= a - 1 {
					c.counts[bits.TrailingZeros64(a)] += prod
				}
			}
			alive &^= cnt
			if alive == 0 {
				return
			}
		}
	}
	for _, cand := range cs.candidates(assign) {
		assign[cs.stream] = cand
		na := alive
		for a := alive; a != 0; a &= a - 1 {
			ri := bits.TrailingZeros64(a)
			r := c.res[ri]
			for _, gi := range r.checks[src][lvl] {
				ok := false
				if p := r.progs[gi]; p != nil {
					ok = p.Eval(assign)
				} else {
					ok = r.cond.Generics[gi].Eval(assign)
				}
				if !ok {
					na &^= uint64(1) << uint(ri)
					break
				}
			}
		}
		if na != 0 {
			mo.searchM(c, steps, src, lvl+1, assign, na)
		}
	}
	assign[cs.stream] = nil
}

// MultiResidualInfo describes one residual class for explain output.
type MultiResidualInfo struct {
	Sig     string
	Members int
}

// MultiClassInfo describes one probe class for explain output.
type MultiClassInfo struct {
	Skeleton  string
	Residuals []MultiResidualInfo
}

// ClassInfos lists the kernel's probe classes in registration order.
func (mo *Multi) ClassInfos() []MultiClassInfo {
	out := make([]MultiClassInfo, 0, len(mo.classes))
	for _, c := range mo.classes {
		ci := MultiClassInfo{Skeleton: c.skelSig}
		for _, r := range c.res {
			ci.Residuals = append(ci.Residuals, MultiResidualInfo{Sig: r.sig, Members: len(r.members)})
		}
		out = append(out, ci)
	}
	return out
}

// SkeletonSig serializes the equi/band skeleton of a condition — the exact
// inputs of the probe planner. Conditions with equal skeleton signatures
// compile to identical probe plans and may share candidate enumeration;
// the serialization is order-sensitive because predicate order influences
// lookup order inside a step.
func SkeletonSig(c *Condition) string {
	var b strings.Builder
	fmt.Fprintf(&b, "m%d", c.M)
	for _, e := range c.Equis {
		fmt.Fprintf(&b, ";E%d.%d=%d.%d", e.LeftStream, e.LeftAttr, e.RightStream, e.RightAttr)
	}
	for _, bd := range c.Bands {
		fmt.Fprintf(&b, ";B%d.%d~%d.%d@%s", bd.LeftStream, bd.LeftAttr, bd.RightStream, bd.RightAttr,
			strconv.FormatFloat(bd.Eps, 'g', -1, 64))
	}
	return b.String()
}

// ResidualSig serializes the full condition: the skeleton plus every generic
// predicate. WhereExpr predicates serialize structurally (two conditions
// with the same expression share a residual class); opaque Where closures
// cannot be compared structurally, so they serialize with the caller's
// per-condition-instance token — only re-registrations of the SAME condition
// instance then share a residual class, which is the only sound grouping
// for arbitrary Go closures.
func ResidualSig(c *Condition, opaqueToken string) string {
	var b strings.Builder
	b.WriteString(SkeletonSig(c))
	for _, g := range c.Generics {
		fmt.Fprintf(&b, ";G%v:", g.Streams)
		if g.Expr != nil {
			b.WriteString(g.Expr.String())
		} else {
			b.WriteString("opaque:" + opaqueToken)
		}
	}
	return b.String()
}
