package join

// The shared-window multi-query engine over the probe kernel of compiled.go.
// A Multi owns ONE set of sliding windows (indexed on the union of what the
// registered queries' plans probe) and executes N queries' probes against
// it: every arrival expires and inserts ONCE regardless of query count
// (the arrival shell it shares with Operator), and one probe pass per
// arrival fans result counts (and materialized results) out to all
// registered queries.
//
// # Prefix grouping
//
// Queries are grouped into *probe classes* (mclass) by their equi/band
// skeleton — the ordered (Equis, Bands) lists, which are all the planner's
// pickNext and lookup assignment ever consult. Every member of a class
// therefore has the IDENTICAL probe plan (step order, index probes, residual
// equi/band filters, equivalence-class rewrite): the class enumerates
// candidates once and members diverge only at their generic predicates. A
// branch is pruned as soon as no member remains alive on it, so per-arrival
// probe cost grows with the number of distinct probe prefixes, not with
// query count.
//
// Within a class, members whose FULL condition is identical (same generics,
// as established by the caller-supplied residual signature) collapse into
// one *residual class*: their predicates run once and the resulting count is
// credited to every member — N identical queries cost one probe total. A
// class holding one residual class is exactly a standalone Operator's: the
// predicates compile into its steps. A class holding several evaluates them
// per candidate under a per-residual-class alive bitmask.
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
//   - generic predicates run at the step buildPlan assigns them in the
//     member's own plan, and they only prune enumeration, never reorder it;
//   - the counting paths (countable tail, fused tail) are taken per residual
//     class under exactly the standalone gate — no predicate pending, no
//     sink — and counting and enumeration agree on counts by the kernel's
//     own invariant.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/stream"
)

// MultiMember is one query registered with a Multi kernel. It is created by
// Add and identifies the query in Remove/SetEmit calls.
type MultiMember struct {
	countEmit   CountEmitFunc
	onProcessed ProcessedFunc
	results     int64
	emit        EmitFunc
	cond        *Condition
	resSig      string
	res         *mres
}

// Results returns the number of results this member's query has derived.
func (mm *MultiMember) Results() int64 { return mm.results }

// Multi is the shared-window multi-query MSWJ kernel. Like Operator it is
// push-based, single-threaded, and expects mostly timestamp-ordered input
// (the Synchronizer's output); out-of-order residue follows lines 9–10 of
// Alg. 2 against the shared windows.
type Multi struct {
	shell
	sizes   []stream.Time
	members []*MultiMember
	classes []*mclass
}

// NewMulti creates an empty shared kernel over len(sizes) streams; sizes[i]
// is the shared window extent W_i and must be positive. Queries attach with
// Add — before any tuple is processed; the windows exist from the first Add
// on — and detach with Remove at any time.
func NewMulti(sizes []stream.Time) *Multi {
	if len(sizes) < 2 {
		panic("join: Multi needs at least 2 streams")
	}
	return &Multi{
		shell: shell{assignBuf: make([]*stream.Tuple, len(sizes))},
		sizes: slices.Clone(sizes),
	}
}

// Members returns the number of registered queries.
func (mo *Multi) Members() int { return len(mo.members) }

// Add registers one query. resSig is the caller's full-condition signature:
// two members carry equal signatures iff their conditions are semantically
// identical (the multi-query engine derives it from the predicate structure,
// tagging opaque closures per condition instance). Add seals the condition
// and must run before the kernel has processed any tuple: the shared windows
// are rebuilt with the union of the indexes all members' plans probe, which
// is only sound while they are empty. The engine guarantees this by keying shared
// kernels on their registration epoch.
func (mo *Multi) Add(cond *Condition, resSig string, emit EmitFunc, countEmit CountEmitFunc, onProcessed ProcessedFunc) *MultiMember {
	if cond == nil || cond.M != mo.M() {
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
// residual class is dropped from its probe class, and an emptied class is
// dropped entirely. The shared windows are left untouched — remaining
// queries keep probing them, the class recompiled against the same indexes.
func (mo *Multi) Remove(mm *MultiMember) {
	if mm == nil || mm.res == nil {
		panic("join: Multi.Remove of an unknown or already-removed member")
	}
	r, ci := mm.res, mo.classOf(mm)
	c := mo.classes[ci]
	mm.res = nil
	r.members = slices.DeleteFunc(r.members, func(o *MultiMember) bool { return o == mm })
	mo.members = slices.DeleteFunc(mo.members, func(o *MultiMember) bool { return o == mm })
	if len(r.members) == 0 {
		c.res = slices.DeleteFunc(c.res, func(o *mres) bool { return o == r })
	}
	if len(c.res) == 0 {
		mo.classes = slices.Delete(mo.classes, ci, ci+1)
		return
	}
	c.compile(mo.windows)
}

// classOf returns the index of the probe class holding mm's residual class.
func (mo *Multi) classOf(mm *MultiMember) int {
	for ci, c := range mo.classes {
		if slices.Contains(c.res, mm.res) {
			return ci
		}
	}
	panic("join: Multi: member of no probe class")
}

// SetEmit installs (or clears) a member's result sink; a non-nil sink
// disables the counting fast path for the member's residual class, exactly
// as on a standalone operator.
func (mo *Multi) SetEmit(mm *MultiMember, f EmitFunc) {
	if mm == nil || mm.res == nil {
		panic("join: Multi.SetEmit on an unknown or removed member")
	}
	mm.emit = f
	mo.classes[mo.classOf(mm)].refreshEmit()
}

// rebuild recomputes windows, classes and compiled plans from the current
// member list. Only called while the windows are empty.
func (mo *Multi) rebuild() {
	// Group members by skeleton into classes, then by residual signature
	// into residual classes, preserving registration order.
	mo.classes = nil
	for _, mm := range mo.members {
		sk := SkeletonSig(mm.cond)
		placed := false
		for _, c := range mo.classes {
			if placed = c.skelSig == sk && c.add(mm); placed {
				break
			}
		}
		if !placed {
			skel := &Condition{M: mm.cond.M, Equis: slices.Clone(mm.cond.Equis), Bands: slices.Clone(mm.cond.Bands)}
			skel.seal()
			cls := &mclass{skelSig: sk, skel: skel, plans: buildPlans(skel)}
			cls.add(mm)
			mo.classes = append(mo.classes, cls)
		}
	}
	// Build the windows with the union of what the class plans probe, then
	// compile every class against them.
	planSets := make([][]plan, len(mo.classes))
	for i, c := range mo.classes {
		planSets[i] = c.plans
	}
	mo.windows = newWindows(mo.sizes, planSets...)
	for _, c := range mo.classes {
		c.compile(mo.windows)
	}
}

// Process consumes one tuple per Alg. 2 against the shared windows, fanning
// results out to every member: one expire + insert per arrival, counts
// credited and count sinks fired before the insert, per-member productivity
// hooks after it in registration order — the standalone operator's sequence.
func (mo *Multi) Process(e *stream.Tuple) {
	nCross, inOrder := mo.arrive(e, max(mo.onT, e.TS))
	if inOrder {
		for _, c := range mo.classes {
			c.probe(&mo.shell, e)
		}
		for _, c := range mo.classes {
			for ri, r := range c.res {
				n := c.out[ri].n
				for _, mm := range r.members {
					mm.results += n
					if mm.countEmit != nil && n > 0 {
						mm.countEmit(e.TS, n)
					}
				}
			}
		}
		mo.windows[e.Src].Insert(e)
	}
	for _, c := range mo.classes {
		for ri, r := range c.res {
			var n int64
			if inOrder {
				n = c.out[ri].n
			}
			for _, mm := range r.members {
				if mm.onProcessed != nil {
					mm.onProcessed(e, nCross, n, inOrder)
				}
			}
		}
	}
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
