package join

import (
	"slices"

	"repro/internal/index"
	"repro/internal/stream"
)

// The interpreted probe kernel: a direct, level-by-level execution of the
// symbolic plan buildPlans produces, looking the index for each probe up by
// attribute at probe time. Production probing always runs the compiled
// kernel (compiled.go); this reference exists so TestCompiledMatchesInterpreted
// can pin the compiled kernel's enumeration order and counts bit-for-bit
// against an execution that shares none of its lowering.

// processInterp is ProcessAt with the in-order branch's probe run by the
// interpreted kernel; out-of-order tuples never probe and go through
// ProcessAt unchanged.
func processInterp(o *Operator, e *stream.Tuple, wm stream.Time) int64 {
	if e.TS < wm {
		return o.ProcessAt(e, wm)
	}
	o.processed++
	if wm > o.onT {
		o.onT = wm
	}
	var nCross int64 = 1
	for j, w := range o.windows {
		w.Expire(e.TS - w.Size())
		if j != e.Src {
			nCross *= int64(w.Len())
		}
	}
	for i := range o.assignBuf {
		o.assignBuf[i] = nil
	}
	o.assignBuf[e.Src] = e
	p := buildPlan(o.mem.cond, e.Src)
	nOn := o.search(p, markCountableTails(e.Src, p), 0, o.assignBuf)
	o.mem.results += nOn
	if o.mem.countEmit != nil && nOn > 0 {
		o.mem.countEmit(e.TS, nOn)
	}
	o.windows[e.Src].Insert(e)
	if o.mem.onProcessed != nil {
		o.mem.onProcessed(e, nCross, nOn, true)
	}
	return nOn
}

// search enumerates (or counts) assignments level by level. tails[lvl] is
// the symbolic plan's countable-tail flag for step lvl.
func (o *Operator) search(p plan, tails []bool, lvl int, assign []*stream.Tuple) int64 {
	if lvl == len(p) {
		if o.mem.emit != nil {
			tuples := make([]*stream.Tuple, len(assign))
			copy(tuples, assign)
			o.mem.emit(stream.NewResult(tuples))
		}
		return 1
	}
	st := &p[lvl]
	// Counting-only fast path: when the remaining steps are mutually
	// independent and no results need materializing, multiply counts.
	if tails[lvl] && o.mem.emit == nil {
		var prod int64 = 1
		for j := lvl; j < len(p); j++ {
			prod *= o.candidateCount(&p[j], assign)
			if prod == 0 {
				return 0
			}
		}
		return prod
	}
	var n int64
	for _, cand := range o.candidates(st, assign) {
		assign[st.stream] = cand
		if o.stepChecks(st, assign) {
			n += o.search(p, tails, lvl+1, assign)
		}
	}
	assign[st.stream] = nil
	return n
}

// baseCandidates selects the step's base candidate set — the first hash
// lookup when the step has equi predicates (generally most selective), the
// band window in the grid's documented order otherwise, the whole window
// with neither — and returns the residual lookups still to be filtered.
//
// A band-only step never touches the grid: its base is the whole window —
// (TS, Seq) order — stably sorted by the cells (index.BandCell) of the
// step's first band and of its first later band on another attribute, the
// order a grid probe enumerates in, and ALL band lookups stay in the
// residual set so the exact difference-form check of stepFilter decides
// membership.
func (o *Operator) baseCandidates(st *step, assign []*stream.Tuple) (base []*stream.Tuple, extraEq []lookup, extraBands []bandLookup) {
	w := o.windows[st.stream]
	switch {
	case len(st.lookups) > 0:
		l0 := st.lookups[0]
		if bits, ok := index.KeyBits(assign[l0.boundStream].Attr(l0.boundAttr)); ok { // NaN never equi-matches
			base = w.HashIndex(l0.ownAttr).Get(bits)
		}
		return base, st.lookups[1:], st.bands
	case len(st.bands) > 0:
		dims := st.bands[:1]
		for _, b := range st.bands[1:] {
			if b.ownAttr != st.bands[0].ownAttr {
				dims = append(dims[:1:1], b)
				break
			}
		}
		base = slices.Clone(w.All())
		slices.SortStableFunc(base, func(x, y *stream.Tuple) int {
			for _, b := range dims {
				if cx, cy := index.BandCell(x.Attr(b.ownAttr), b.eps), index.BandCell(y.Attr(b.ownAttr), b.eps); cx != cy {
					return int(cx - cy)
				}
			}
			return 0
		})
		return base, nil, st.bands
	default:
		return w.All(), nil, nil
	}
}

// stepFilter applies the step's residual lookups to one candidate.
func stepFilter(cand *stream.Tuple, eqs []lookup, bands []bandLookup, assign []*stream.Tuple) bool {
	for _, l := range eqs {
		if cand.Attr(l.ownAttr) != assign[l.boundStream].Attr(l.boundAttr) {
			return false
		}
	}
	for _, b := range bands {
		d := cand.Attr(b.ownAttr) - assign[b.boundStream].Attr(b.boundAttr)
		// Negated form: NaN (all comparisons false) never band-matches.
		if !(d >= -b.eps && d <= b.eps) {
			return false
		}
	}
	return true
}

// candidates returns the window tuples on st.stream compatible with the
// bound lookups of the step, filtering residual lookups into a fresh slice.
func (o *Operator) candidates(st *step, assign []*stream.Tuple) []*stream.Tuple {
	base, extraEq, extraBands := o.baseCandidates(st, assign)
	if len(extraEq) == 0 && len(extraBands) == 0 {
		return base
	}
	var out []*stream.Tuple
	for _, cand := range base {
		if stepFilter(cand, extraEq, extraBands, assign) {
			out = append(out, cand)
		}
	}
	return out
}

// candidateCount counts candidates without materializing them: a pure equi
// step counts its hash bucket in O(1), a band step counts the (widened)
// range view through the exact residual filter in O(box matches).
func (o *Operator) candidateCount(st *step, assign []*stream.Tuple) int64 {
	base, extraEq, extraBands := o.baseCandidates(st, assign)
	if len(extraEq) == 0 && len(extraBands) == 0 {
		return int64(len(base))
	}
	var n int64
	for _, cand := range base {
		if stepFilter(cand, extraEq, extraBands, assign) {
			n++
		}
	}
	return n
}

// stepChecks evaluates the generic predicates that became fully bound.
func (o *Operator) stepChecks(st *step, assign []*stream.Tuple) bool {
	for _, gi := range st.checks {
		if !o.mem.cond.Generics[gi].Eval(assign) {
			return false
		}
	}
	return true
}

// markCountableTails computes, per step of the symbolic plan, whether the
// suffix starting there is enumerable by pure counting: no generic checks
// remain, and every bound stream any remaining step references was bound
// before the suffix begins (so later candidate counts are independent of
// earlier candidate choices). The compiled kernel recomputes the flag on its
// rewritten references (markCountableTailsC); this is the symbolic original.
func markCountableTails(arriving int, p plan) []bool {
	m := arriving + 1
	for i := range p {
		if p[i].stream >= m {
			m = p[i].stream + 1
		}
	}
	// prefixes[i] = {arriving} ∪ {steps < i}.
	cur := newBitset(m)
	cur.set(arriving)
	prefixes := make([]bitset, len(p))
	for i := range p {
		prefixes[i] = newBitset(m)
		prefixes[i].copyFrom(cur)
		cur.set(p[i].stream)
	}
	tails := make([]bool, len(p))
	refs := newBitset(m)
	tailOK := true
	for i := len(p) - 1; i >= 0; i-- {
		if len(p[i].checks) > 0 {
			tailOK = false
		}
		for _, l := range p[i].lookups {
			refs.set(l.boundStream)
		}
		for _, b := range p[i].bands {
			refs.set(b.boundStream)
		}
		tails[i] = tailOK && refs.subset(prefixes[i])
	}
	return tails
}
