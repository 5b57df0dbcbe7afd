package join

// The probe kernel: one walker, mclass.walk, behind Operator and Multi
// alike. buildPlans produces a symbolic plan — per step, lists of lookups
// naming window attributes to probe (interp_test.go executes it directly, as
// the test-only reference). mclass.compile lowers each plan once, when the
// class's membership is settled, into csteps holding *direct handles* to
// the hash/grid index structures plus flattened residual filters, so the
// steady-state probe loop touches no per-call dispatch: an
// equi step is one KeyBits + one open-addressed Get, a band step one grid
// probe over the few cells its first one or two bands cover, each residual one
// sweep of float compares against a bound value read once, and each generic
// predicate added through WhereExpr one more sweep of bytecode compiled for
// the step (bytecode.go), its candidate-invariant parts evaluated once — or,
// for a distance fold over the grid's own keys, no sweep: the grid probe
// decides it on the keys it stores (cstep.fold).
//
// # Equivalence-class rewrite
//
// Compilation additionally rewrites each probe's bound reference to the
// earliest-bound member of its equality class. The classes are built
// incrementally in step order from the plan's own equi lookups: executing the
// lookup own == bound guarantees every surviving candidate satisfies exact
// float equality, so a later step's reference to (stream, attr) may read the
// equal value from any stream bound earlier that the executed lookups connect
// it to. The rewrite is exact, not heuristic:
//
//   - hash buckets are float-equality classes (KeyBits collapses ±0 and
//     rejects NaN, and x == y for floats iff KeyBits(x) == KeyBits(y) for the
//     non-NaN values that can reach a bucket), so probing with an equal value
//     returns the identical bucket view — same tuples, same order;
//   - residual equi (!=) and band (difference-form) checks are invariant
//     under replacing an operand with a float-equal value (the only bit-level
//     difference, ±0, compares equal and produces a ±0 difference that the
//     closed band treats identically).
//
// The payoff is countability: in a chain S0.a = S1.a = S2.a the symbolic plan
// for arriving S0 probes S2 with S1's value, so the tail is not countable
// from step 0 (it references a stream bound mid-plan); after the rewrite both
// probes read the arriving tuple and the whole plan collapses to two hash
// gets and a multiply. countableTail is therefore recomputed on the compiled
// steps, never copied from the symbolic plan.

import (
	"math/bits"
	"slices"

	"repro/internal/index"
	"repro/internal/stream"
	"repro/internal/window"
)

// cref names the source of a probe value in the current assignment:
// assign[stream].Attr(attr).
type cref struct {
	stream, attr int
}

// ceq is a compiled residual equi filter: cand.Attr(ownAttr) must equal the
// referenced value exactly.
type ceq struct {
	ownAttr int
	ref     cref
}

// cband is a compiled band in exact difference form:
// cand.Attr(ownAttr) − ref ∈ [−eps, eps].
type cband struct {
	ownAttr int
	ref     cref
	eps     float64
}

// in reports whether the difference d = own − bound lies in the closed band.
// The negated form keeps NaN (all comparisons false) out.
func (b *cband) in(d float64) bool { return d >= -b.eps && d <= b.eps }

// cstep probes one stream through direct index handles. At most one of hash
// and grid is non-nil (the base candidate probe); with neither the step scans
// the whole window. The exact difference form decides every band — as a
// residual filter, or for the grid's bands inside the grid probe on the keys
// it stores — which keeps planned execution bit-for-bit consistent with
// Condition.Matches (and with internal/dist's residual band filters) even
// for attribute values within rounding distance of a band edge.
type cstep struct {
	stream int
	win    *window.Window

	hash    *index.Hash[*stream.Tuple]
	hashRef cref

	// What the walker reads on entering the step, kept on one cache line with
	// the hash handle — a pure equi step of a counting probe touches no other
	// line of the step. filters: the step filters beyond its base probe
	// (resEq, resBand or kern). countableTail and tailFused: see
	// markCountableTailsC and fuseTail. chk and chkAfter are set by
	// mclass.compile, one bit per residual class: chk when pend[ri] is not
	// empty, chkAfter when a predicate of class ri binds at this step or a
	// later one.
	filters, countableTail, tailFused bool
	chk, chkAfter                     uint64

	// The band + sweep path, in the order candidates reads it. gridRef are
	// the bound values of the bands the grid answers (never also in resBand);
	// a one-dimensional grid ignores the second.
	grid    *index.Grid[*stream.Tuple]
	gridRef [2]cref
	// fold is the compiled generic predicate the grid probe decides on the
	// keys it stores (Prog.grid): a sum of squared differences of the grid
	// keys from their band centers (gridRef). Its prologue fills the bound
	// once per probe. nil when no predicate of the step qualifies.
	fold    *Prog
	resBand []cband
	// buf is the step's reusable candidate buffer, so residual filtering
	// never allocates in steady state. A step is entered at most once per
	// search path (each level is a distinct step), so levels never share it.
	buf []*stream.Tuple
	// The generic predicates of the condition the step was compiled from,
	// fold aside: kern sweeps the candidate list like one more residual;
	// checks (indexes into Condition.Generics) are those that do not compile
	// — opaque Where closures, expressions deeper than bcMaxStack. pend[ri]
	// is what residual class ri evaluates per bound candidate in the
	// enumeration loop: checks for a class compiled into the steps, else all
	// its predicates that bind here (mclass.compile).
	kern   []*Prog
	resEq  []ceq
	checks []int
	pend   [][]pcheck

	// The fused counting loop for the hottest enumeration shape (tailFused):
	// this step must enumerate its candidates (its own count depends on the
	// choice), but every later step is a pure single-equi countable step and
	// no generic checks remain. Each tail step is then one hash bucket
	// length; fusedCount multiplies them per candidate without recursing.
	// Probes whose reference reads the enumerated candidate (tailCand) run
	// inside the candidate loop straight off the candidate tuple; probes
	// bound to earlier streams (tailFixed) are invariant across candidates
	// and are hoisted out, computed once per probe. Semantically identical to
	// the recursive path: it is the countableTail product with the call tree
	// flattened and the loop-invariant factors pulled out.
	tailCand  []tailProbe // refs read attr of this step's own candidate
	tailFixed []tailProbe // refs read streams bound before this step
}

// tailProbe is one fused tail count: len(hash bucket keyed by the referenced
// value); for tailCand entries ref.attr is read from the candidate itself.
type tailProbe struct {
	hash *index.Hash[*stream.Tuple]
	ref  cref
}

// cplan is the compiled probe order for one arriving stream.
type cplan struct {
	steps []cstep
}

// newWindows builds one window per stream carrying exactly the indexes the
// plans' base probes read — a step's first equi lookup (fused tail probes are
// those same steps) or, on a band-only step, the grid of its first two bands
// on distinct attributes (gridBands); compilePlan takes exactly these
// handles. Every index costs an Add and a Remove per tuple, so an attribute
// that is only ever a residual gets none. Several plan sets (Multi's probe
// classes) share the union.
func newWindows(sizes []stream.Time, planSets ...[]plan) []*window.Window {
	hash := make([][]int, len(sizes))
	grids := make([][]window.GridKey, len(sizes))
	for _, plans := range planSets {
		for _, p := range plans {
			for i := range p {
				switch st := &p[i]; {
				case len(st.lookups) > 0:
					if a := st.lookups[0].ownAttr; !slices.Contains(hash[st.stream], a) {
						hash[st.stream] = append(hash[st.stream], a)
					}
				case len(st.bands) > 0:
					if k, _ := gridBands(st.bands); !slices.Contains(grids[st.stream], k) {
						grids[st.stream] = append(grids[st.stream], k)
					}
				}
			}
		}
	}
	windows := make([]*window.Window, len(sizes))
	for i, w := range sizes {
		if w <= 0 {
			panic("join: window size must be positive")
		}
		windows[i] = window.NewIndexed(w, hash[i], grids[i])
	}
	return windows
}

// gridBands picks the bands a band-only step's grid answers: the first, and
// the first later one on another own attribute as the second dimension. It
// returns the grid's key and that second band's position (0 when the grid
// has one dimension).
func gridBands(bands []bandLookup) (window.GridKey, int) {
	b0 := bands[0]
	k := window.GridKey{A: b0.ownAttr, B: -1, EpsA: b0.eps}
	for j := 1; j < len(bands); j++ {
		if bj := bands[j]; bj.ownAttr != b0.ownAttr {
			k.B, k.EpsB = bj.ownAttr, bj.eps
			return k, j
		}
	}
	return k, 0
}

// compilePlan lowers the symbolic plan for one arriving stream against the
// windows; cond supplies the generic predicates p's checks index.
func compilePlan(cond *Condition, arriving int, p plan, windows []*window.Window) cplan {
	// canon maps an attribute reference to an exactly-equal reference on an
	// earlier-bound stream, derived from the equi lookups already executed.
	// resolve chases chains to the earliest-bound representative; entries are
	// only ever added for the stream a step just bound, so every ref a later
	// step resolves is justified by lookups that executed before it.
	canon := map[cref]cref{}
	resolve := func(r cref) cref {
		for {
			c, ok := canon[r]
			if !ok {
				return r
			}
			r = c
		}
	}

	steps := make([]cstep, len(p))
	for i := range p {
		st := &p[i]
		cs := &steps[i]
		var gridKey window.GridKey
		cs.stream = st.stream
		cs.win = windows[st.stream]
		switch {
		case len(st.lookups) > 0:
			l0 := st.lookups[0]
			cs.hash = cs.win.HashIndex(l0.ownAttr)
			if cs.hash == nil {
				panic("join: compiled plan probes an unindexed equi attribute")
			}
			cs.hashRef = resolve(cref{l0.boundStream, l0.boundAttr})
			for _, l := range st.lookups[1:] {
				cs.resEq = append(cs.resEq, ceq{l.ownAttr, resolve(cref{l.boundStream, l.boundAttr})})
			}
			for _, b := range st.bands {
				cs.resBand = append(cs.resBand, cband{b.ownAttr, resolve(cref{b.boundStream, b.boundAttr}), b.eps})
			}
		case len(st.bands) > 0:
			k, j := gridBands(st.bands)
			gridKey = k
			cs.grid = cs.win.Grid(k)
			if cs.grid == nil {
				panic("join: compiled plan probes an unindexed band attribute")
			}
			for i, b := range st.bands {
				ref := resolve(cref{b.boundStream, b.boundAttr})
				switch {
				case i == 0:
					cs.gridRef = [2]cref{ref, ref}
				case i == j:
					cs.gridRef[1] = ref
				default:
					cs.resBand = append(cs.resBand, cband{b.ownAttr, ref, b.eps})
				}
			}
		}
		for _, gi := range st.checks {
			k := compileStep(cond.Generics[gi].Expr, st.stream)
			if k != nil && cs.grid != nil && cs.fold == nil {
				k.grid = k.gridFold([2]int{gridKey.A, gridKey.B}, cs.gridRef, resolve)
			}
			switch {
			case k != nil && k.grid != nil:
				// Decided in the grid probe: the step's filters are pure
				// conjuncts, so the sweeps after it keep the same list in
				// the same order.
				cs.fold = k
			case k != nil:
				cs.kern = append(cs.kern, k)
			default:
				cs.checks = append(cs.checks, gi)
			}
		}
		cs.filters = len(cs.resEq) > 0 || len(cs.resBand) > 0 || len(cs.kern) > 0
		// Register this step's equalities for later steps. First writer wins
		// when two lookups share an own attribute; either target is exact.
		for _, l := range st.lookups {
			own := cref{st.stream, l.ownAttr}
			if _, dup := canon[own]; !dup {
				canon[own] = resolve(cref{l.boundStream, l.boundAttr})
			}
		}
	}
	markCountableTailsC(arriving, steps, cond.M)
	for i := range steps {
		fuseTail(steps, i)
	}
	return cplan{steps: steps}
}

// fuseTail builds the fused tail probes for step i, or leaves the step
// unfused when the tail after i is not a pure single-equi counting chain
// (see cstep.tailFused).
func fuseTail(steps []cstep, i int) {
	cs := &steps[i]
	if cs.countableTail || cs.generic() || i+1 >= len(steps) || !steps[i+1].countableTail {
		return
	}
	var cand, fixed []tailProbe
	for j := i + 1; j < len(steps); j++ {
		t := &steps[j]
		if t.hash == nil || t.filters {
			return
		}
		tp := tailProbe{hash: t.hash, ref: t.hashRef}
		if t.hashRef.stream == cs.stream {
			cand = append(cand, tp)
		} else {
			fixed = append(fixed, tp)
		}
	}
	cs.tailFused = true
	cs.tailCand = cand
	cs.tailFixed = fixed
}

// markCountableTailsC recomputes countableTail on the compiled steps, whose
// rewritten references are often strictly earlier-bound than the symbolic
// plan's (see the package comment on the equivalence rewrite): no generic
// checks remain in the suffix, and every stream a remaining step references
// was bound before the suffix begins, so later candidate counts are
// independent of earlier candidate choices. One backward pass suffices: refs
// accumulates the union of references over steps ≥ i, and the prefix bound
// set grows by one stream per step.
func markCountableTailsC(arriving int, steps []cstep, m int) {
	words := len(newBitset(m))
	backing := make([]uint64, (len(steps)+1)*words)
	cur := bitset(backing[:words])
	cur.set(arriving)
	prefixes := make([]bitset, len(steps))
	for i := range steps {
		prefixes[i] = bitset(backing[(i+1)*words : (i+2)*words])
		prefixes[i].copyFrom(cur)
		cur.set(steps[i].stream)
	}
	refs := newBitset(m)
	tailOK := true
	for i := len(steps) - 1; i >= 0; i-- {
		cs := &steps[i]
		if cs.generic() {
			tailOK = false
		}
		if cs.hash != nil {
			refs.set(cs.hashRef.stream)
		}
		if cs.grid != nil {
			refs.set(cs.gridRef[0].stream)
			refs.set(cs.gridRef[1].stream)
		}
		for j := range cs.resEq {
			refs.set(cs.resEq[j].ref.stream)
		}
		for j := range cs.resBand {
			refs.set(cs.resBand[j].ref.stream)
		}
		cs.countableTail = tailOK && refs.subset(prefixes[i])
	}
}

// generic reports whether the step has generic predicates.
func (cs *cstep) generic() bool { return cs.fold != nil || len(cs.kern) > 0 || len(cs.checks) > 0 }

// base returns the base candidate view of a step without a grid: the hash
// bucket, or the whole window. Views are index-internal storage; never
// retained.
func (cs *cstep) base(assign []*stream.Tuple) []*stream.Tuple {
	if cs.hash != nil {
		bits, ok := index.KeyBits(assign[cs.hashRef.stream].Attr(cs.hashRef.attr))
		if !ok {
			return nil // NaN never equi-matches
		}
		return cs.hash.Get(bits)
	}
	return cs.win.All()
}

// candidates returns the step's exact candidates in base order: the base
// view itself when nothing else filters, else cs.buf — filled by the grid
// probe with the exact members of the grid's bands that pass the fused fold
// (in the grid's cell, then (TS, Seq) order), or swept from the base view —
// after one pass per residual; each reads its bound values once and sweeps
// the survivors of the previous pass in place, compiled generic predicates
// last. The result is valid until the step is next probed.
func (cs *cstep) candidates(assign []*stream.Tuple) []*stream.Tuple {
	stale := len(cs.buf)
	var in []*stream.Tuple
	if cs.grid != nil {
		r0, r1 := &cs.gridRef[0], &cs.gridRef[1]
		var f *index.Fold
		if cs.fold != nil {
			f = cs.fold.gridProbe(assign)
		}
		in = cs.grid.AppendBandFold(cs.buf[:0], assign[r0.stream].Attr(r0.attr), assign[r1.stream].Attr(r1.attr), f)
		cs.buf, stale = in, max(stale, len(in))
	} else if in = cs.base(assign); !cs.filters {
		return in
	}
	for i := range cs.resEq {
		r := &cs.resEq[i]
		v := assign[r.ref.stream].Attr(r.ref.attr)
		out := cs.buf[:0]
		for _, cand := range in {
			if cand.Attr(r.ownAttr) == v {
				out = append(out, cand)
			}
		}
		cs.buf, in, stale = out, out, max(stale, len(out))
	}
	for i := range cs.resBand {
		b := &cs.resBand[i]
		v := assign[b.ref.stream].Attr(b.ref.attr)
		out := cs.buf[:0]
		for _, cand := range in {
			if b.in(cand.Attr(b.ownAttr) - v) {
				out = append(out, cand)
			}
		}
		cs.buf, in, stale = out, out, max(stale, len(out))
	}
	for _, k := range cs.kern {
		out := k.sweep(assign, cs.stream, in, cs.buf[:0])
		cs.buf, in, stale = out, out, max(stale, len(out))
	}
	// Nil what earlier passes and probes left behind the survivors so the
	// buffer does not pin expired tuples.
	clear(in[len(in):min(stale, cap(in))])
	return in
}

// ccount counts a step's candidates; a pure equi step is the length of its
// bucket, a pure grid step that of the grid probe's list.
func (cs *cstep) ccount(assign []*stream.Tuple) int64 {
	return int64(len(cs.candidates(assign)))
}

// fusedCount is a tailFused step's count over its candidates: the countable
// product with the call tree flattened, the tail bucket lengths multiplied
// inline per candidate. Probes bound to earlier streams are invariant across
// candidates; their product is computed once, and the whole enumeration is
// skipped when it is already zero.
func (cs *cstep) fusedCount(assign, cands []*stream.Tuple) int64 {
	fixed := int64(1)
	for k := range cs.tailFixed {
		tp := &cs.tailFixed[k]
		bits, ok := index.KeyBits(assign[tp.ref.stream].Attr(tp.ref.attr))
		if !ok {
			return 0
		}
		if fixed *= int64(len(tp.hash.Get(bits))); fixed == 0 {
			return 0
		}
	}
	var n int64
	switch len(cs.tailCand) {
	case 0:
		// All tail probes were invariant: every candidate contributes the
		// same fixed product. (Unreachable when the planner already
		// marked this step countable, but kept for completeness.)
		return int64(len(cands)) * fixed
	case 1:
		tp := &cs.tailCand[0]
		a := tp.ref.attr
		for _, cand := range cands {
			if bits, ok := index.KeyBits(cand.Attr(a)); ok {
				n += fixed * int64(len(tp.hash.Get(bits)))
			}
		}
		return n
	case 2:
		// The star join's spoke-arrival shape: two per-candidate bucket
		// counts, multiplied inline.
		tp0, tp1 := &cs.tailCand[0], &cs.tailCand[1]
		a0, a1 := tp0.ref.attr, tp1.ref.attr
		for _, cand := range cands {
			bits0, ok := index.KeyBits(cand.Attr(a0))
			if !ok {
				continue
			}
			n0 := int64(len(tp0.hash.Get(bits0)))
			if n0 == 0 {
				continue
			}
			bits1, ok := index.KeyBits(cand.Attr(a1))
			if !ok {
				continue
			}
			n += fixed * n0 * int64(len(tp1.hash.Get(bits1)))
		}
		return n
	}
	for _, cand := range cands {
		prod := fixed
		for k := range cs.tailCand {
			tp := &cs.tailCand[k]
			bits, ok := index.KeyBits(cand.Attr(tp.ref.attr))
			if !ok {
				prod = 0
				break
			}
			if prod *= int64(len(tp.hash.Get(bits))); prod == 0 {
				break
			}
		}
		n += prod
	}
	return n
}

// maxResidualClasses caps the per-class alive bitmask width; a skeleton with
// more distinct residual classes overflows into a sibling class sharing the
// same windows (enumeration is then repeated per sibling, counts unchanged).
const maxResidualClasses = 64

// pcheck is one generic predicate evaluated per bound candidate: bytecode
// when the expression compiles, else the predicate's own Eval (opaque Where
// closures, expressions deeper than bcMaxStack).
type pcheck struct {
	prog *Prog
	eval func(assign []*stream.Tuple) bool
}

// pass reports whether assign satisfies every check.
func pass(checks []pcheck, assign []*stream.Tuple) bool {
	for _, k := range checks {
		if k.prog != nil {
			if !k.prog.Eval(assign) {
				return false
			}
		} else if !k.eval(assign) {
			return false
		}
	}
	return true
}

// mres is one residual class: members with bit-identical full conditions.
// Its predicates are decided once per candidate for all of them.
type mres struct {
	sig     string
	cond    *Condition
	members []*MultiMember
}

// mclass is one probe class: the residual classes sharing an equi/band
// skeleton — all the planner's pickNext and lookup assignment consult — and
// therefore one step order, one set of index probes and one candidate
// enumeration. An Operator is one class with one residual class of one
// member; a Multi groups its members into as few classes as it can.
type mclass struct {
	// What a probe reads, kept together: on a counting probe it is these
	// few cache lines, one per step, and the index buckets.
	cplans []cplan
	// full has one bit per residual class. emitMask has bit ri set when
	// out[ri] has a sink: a class whose bit is clear there and in a step's
	// chkAfter needs only a number from that step on.
	full, emitMask uint64
	// out[ri] is where residual class ri's results go; a class of one keeps
	// it in out1 (so a compiled class is never copied).
	out  []rout
	out1 [1]rout

	// What the class was built from, read when membership changes.
	res     []*mres
	skelSig string
	skel    *Condition
	plans   []plan // the skeleton's symbolic plans: what the windows must index
}

// rout takes one residual class's results: n counts those of the current
// arrival, sinks are its members' result sinks in registration order.
type rout struct {
	n     int64
	sinks []EmitFunc
}

// add files mm under the residual class with its signature, opening one
// while the alive mask has a bit left; it reports whether mm found a place.
func (c *mclass) add(mm *MultiMember) bool {
	for _, r := range c.res {
		if r.sig == mm.resSig {
			r.members = append(r.members, mm)
			mm.res = r
			return true
		}
	}
	if len(c.res) == maxResidualClasses {
		return false
	}
	mm.res = &mres{sig: mm.resSig, cond: mm.cond, members: []*MultiMember{mm}}
	c.res = append(c.res, mm.res)
	return true
}

// compile lowers the class for the residual classes it holds now. With one,
// the steps are compiled from that class's full condition: its generic
// predicates become step sweeps (cstep.kern) and only what does not compile
// (cstep.checks) is left per candidate. With several, the steps are the
// shared skeleton's and each residual class decides its predicates per
// candidate under its alive bit, at the level buildPlan gives them — the
// same level either way, because the step order depends on equis and bands
// alone.
func (c *mclass) compile(windows []*window.Window) {
	single := len(c.res) == 1
	stepCond := c.skel
	if single {
		stepCond = c.res[0].cond
	}
	c.cplans = make([]cplan, c.skel.M)
	for src := range c.cplans {
		c.cplans[src] = compilePlan(stepCond, src, buildPlan(stepCond, src), windows)
		steps := c.cplans[src].steps
		for lvl := range steps {
			steps[lvl].pend = make([][]pcheck, len(c.res))
		}
		for ri, r := range c.res {
			p := buildPlan(r.cond, src)
			var after uint64
			for lvl := len(steps) - 1; lvl >= 0; lvl-- {
				cs := &steps[lvl]
				perCand := p[lvl].checks
				if single {
					perCand = cs.checks
				}
				for _, gi := range perCand {
					g := &r.cond.Generics[gi]
					cs.pend[ri] = append(cs.pend[ri], pcheck{CompileExpr(g.Expr), g.Eval})
					cs.chk |= 1 << uint(ri)
				}
				if len(p[lvl].checks) > 0 {
					after = 1 << uint(ri)
				}
				cs.chkAfter |= after
			}
		}
	}
	c.full = uint64(1)<<uint(len(c.res)) - 1
	c.out = c.out1[:]
	if !single {
		c.out = make([]rout, len(c.res))
	}
	c.refreshEmit()
}

// refreshEmit recomputes the sinks and emitMask after a membership or sink
// change.
func (c *mclass) refreshEmit() {
	c.emitMask = 0
	for ri, r := range c.res {
		c.out[ri].sinks = nil
		for _, mm := range r.members {
			if mm.emit != nil {
				c.out[ri].sinks = append(c.out[ri].sinks, mm.emit)
				c.emitMask |= 1 << uint(ri)
			}
		}
	}
}

// probe joins the in-order arrival e against the windows of the other
// streams, leaving the number of results per residual class in out[ri].n
// until the class is next probed. Sinks fire during the walk, in production
// order.
func (c *mclass) probe(s *shell, e *stream.Tuple) {
	for i := range c.out {
		c.out[i].n = 0
	}
	// walk leaves every slot it bound nil again, so the assignment needs no
	// clearing, only the arrival taken back out.
	s.assignBuf[e.Src] = e
	c.walk(s, e.TS, c.cplans[e.Src].steps, 0, s.assignBuf, c.full)
	s.assignBuf[e.Src] = nil
}

// credit adds n results to every residual class in mask.
func (c *mclass) credit(mask uint64, n int64) {
	for ; mask != 0; mask &= mask - 1 {
		c.out[bits.TrailingZeros64(mask)].n += n
	}
}

// walk enumerates the plan from level lvl once for all residual classes in
// alive (one bit each), accumulating into c.out and delivering to the
// members with sinks; a branch is abandoned when every class has been
// pruned. The classes that need only a number from here on leave through a
// counting path when the step offers one — the product of the remaining
// steps' counts on a countable tail, the fused per-candidate product on a
// tailFused step — and the rest enumerate. Counting and enumeration agree on
// counts, and checks only prune the enumeration, never reorder it. Every
// result is stamped ts, the arrival's TS, and borrows s's delivery buffer
// (shell.deliver).
func (c *mclass) walk(s *shell, ts stream.Time, steps []cstep, lvl int, assign []*stream.Tuple, alive uint64) {
	cs := &steps[lvl]
	cnt := alive &^ (c.emitMask | cs.chkAfter)
	if cnt != 0 && cs.countableTail {
		var prod int64 = 1
		for j := lvl; j < len(steps) && prod != 0; j++ {
			prod *= steps[j].ccount(assign)
		}
		c.credit(cnt, prod)
		if alive &^= cnt; alive == 0 {
			return
		}
		cnt = 0
	}
	cands := cs.candidates(assign)
	if cnt != 0 && cs.tailFused {
		c.credit(cnt, cs.fusedCount(assign, cands))
		if alive &^= cnt; alive == 0 {
			return
		}
	}
	// On the last step every candidate that passes completes an assignment.
	// The classes with nothing to check here are credited all candidates at
	// once, so the loop below counts only behind a check, and it runs only
	// for the classes that check or deliver.
	last := lvl+1 == len(steps)
	var only []EmitFunc
	if last {
		c.credit(alive&^cs.chk, int64(len(cands)))
		if alive &= cs.chk | c.emitMask; alive == 0 {
			return
		}
		if alive&(alive-1) == 0 && alive&cs.chk == 0 {
			// One class delivers and nothing is checked: its sinks are read
			// once, not again after every call into a sink.
			only = c.out[bits.TrailingZeros64(alive)].sinks
		}
	}
	for _, cand := range cands {
		assign[cs.stream] = cand
		if only != nil {
			for _, emit := range only {
				s.deliver(emit, assign, ts)
			}
			continue
		}
		na := alive
		for a := alive & cs.chk; a != 0; a &= a - 1 {
			if ri := bits.TrailingZeros64(a); !pass(cs.pend[ri], assign) {
				na &^= 1 << uint(ri)
			} else if last {
				c.out[ri].n++
			}
		}
		if !last {
			if na != 0 {
				c.walk(s, ts, steps, lvl+1, assign, na)
			}
			continue
		}
		for a := na & c.emitMask; a != 0; a &= a - 1 {
			for _, emit := range c.out[bits.TrailingZeros64(a)].sinks {
				s.deliver(emit, assign, ts) // refilled for every sink
			}
		}
	}
	assign[cs.stream] = nil
}
