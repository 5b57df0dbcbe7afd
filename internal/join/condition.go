// Package join implements the m-way sliding window join operator of Alg. 2
// together with a small conjunctive-condition planner that supports the
// paper's requirement of "arbitrary join conditions": conjunctions of
// equi-predicates (executed via per-window hash indexes), typed band
// predicates |S_l.a − S_r.a| ≤ ε (executed via per-window sorted range
// indexes), and arbitrary Go predicates such as the soccer query's exact
// dist() < 5 check (executed by filtering enumerated combinations).
//
// Band predicates are the planner's answer to distance-style queries: a 2-D
// proximity join decomposes into two bands (one per coordinate) plus a
// cheap generic residual for the exact circle, turning an O(window) closure
// scan into an O(log n + matches) indexed probe.
package join

import (
	"fmt"
	"math"

	"repro/internal/stream"
)

// EquiPredicate asserts S_Left.Attr(LeftAttr) == S_Right.Attr(RightAttr).
type EquiPredicate struct {
	LeftStream, LeftAttr   int
	RightStream, RightAttr int
}

// BandPredicate asserts |S_Left.Attr(LeftAttr) − S_Right.Attr(RightAttr)| ≤
// Eps (a closed band). NaN attribute values never satisfy a band.
type BandPredicate struct {
	LeftStream, LeftAttr   int
	RightStream, RightAttr int
	Eps                    float64
}

// GenericPredicate is an arbitrary boolean predicate over a subset of the
// input streams. Eval receives the current assignment indexed by stream; it
// is invoked only once every stream listed in Streams is bound, and entries
// for unbound streams are nil.
type GenericPredicate struct {
	Streams []int
	Eval    func(assign []*stream.Tuple) bool
	// Expr is the compilable expression form when the predicate was added
	// through WhereExpr; executors compile it to bytecode for the probe
	// inner loop. Nil for opaque Where closures, which Eval then carries —
	// the escape hatch for predicates outside the expression language.
	Expr *Expr
}

// Condition is a conjunction of equi-, band- and generic predicates over M
// streams. An empty condition is the cross join.
//
// A condition is *sealed* the first time it is compiled — into an operator
// (New), a distributed tree, or a partition scheme (Partition). Mutating a
// sealed condition through Equi/Band/Where panics: the compiled plans,
// indexes and routing keys would silently ignore the new predicate, so the
// executors would disagree with Matches. Sealing is idempotent; building
// several operators from one condition is fine.
type Condition struct {
	M        int
	Equis    []EquiPredicate
	Bands    []BandPredicate
	Generics []GenericPredicate

	sealed bool
}

// seal marks the condition as compiled; further mutation panics.
func (c *Condition) seal() { c.sealed = true }

// Seal marks the condition as compiled into an executor, after which
// Equi/Band/Where panic. New and Partition call it internally; it is
// exported for executors outside this package (internal/dist) that
// compile conditions into plans of their own.
func (c *Condition) Seal() { c.seal() }

// mutable panics when the condition is sealed.
func (c *Condition) mutable(op string) {
	if c.sealed {
		panic("join: " + op + " on a condition already compiled into an operator, tree, or partition scheme — the running executors would silently ignore the new predicate; build the full condition first, or use a fresh Condition")
	}
}

// Cross returns the always-true condition over m streams.
func Cross(m int) *Condition {
	if m < 2 {
		panic(fmt.Sprintf("join: need at least 2 streams, got %d", m))
	}
	return &Condition{M: m}
}

// Equi adds the equi-predicate S_ls.attr(la) = S_rs.attr(ra) and returns the
// condition for chaining. It panics on out-of-range stream indexes.
func (c *Condition) Equi(ls, la, rs, ra int) *Condition {
	c.mutable("Equi")
	if ls < 0 || ls >= c.M || rs < 0 || rs >= c.M || ls == rs {
		panic(fmt.Sprintf("join: invalid equi-predicate streams (%d,%d) for m=%d", ls, rs, c.M))
	}
	c.Equis = append(c.Equis, EquiPredicate{ls, la, rs, ra})
	return c
}

// Band adds the band predicate |S_ls.attr(la) − S_rs.attr(ra)| ≤ eps and
// returns the condition for chaining. The planner resolves band predicates
// to sorted range-index probes; prefer Band over an equivalent Where
// whenever the condition has this shape. It panics on invalid stream
// indexes or a non-finite/negative eps, which are planning bugs.
func (c *Condition) Band(ls, la, rs, ra int, eps float64) *Condition {
	c.mutable("Band")
	if ls < 0 || ls >= c.M || rs < 0 || rs >= c.M || ls == rs {
		panic(fmt.Sprintf("join: invalid band-predicate streams (%d,%d) for m=%d", ls, rs, c.M))
	}
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 {
		panic(fmt.Sprintf("join: band epsilon must be finite and non-negative, got %v", eps))
	}
	c.Bands = append(c.Bands, BandPredicate{ls, la, rs, ra, eps})
	return c
}

// Where adds a generic predicate over the listed streams and returns the
// condition for chaining.
func (c *Condition) Where(streams []int, eval func(assign []*stream.Tuple) bool) *Condition {
	c.mutable("Where")
	for _, s := range streams {
		if s < 0 || s >= c.M {
			panic(fmt.Sprintf("join: predicate references stream %d outside [0,%d)", s, c.M))
		}
	}
	c.Generics = append(c.Generics, GenericPredicate{Streams: streams, Eval: eval})
	return c
}

// EquiChain builds the condition S_0.attr = S_1.attr = … = S_{m−1}.attr used
// by the paper's Q×3 query (all streams share one join attribute).
func EquiChain(m, attr int) *Condition {
	c := Cross(m)
	for i := 0; i+1 < m; i++ {
		c.Equi(i, attr, i+1, attr)
	}
	return c
}

// Star builds a star-shaped condition centered on stream 0, as in the
// paper's Q×4 query: S_0.attr(centerAttrs[i]) = S_{i+1}.attr(spokeAttrs[i]).
func Star(m int, centerAttrs, spokeAttrs []int) *Condition {
	if len(centerAttrs) != m-1 || len(spokeAttrs) != m-1 {
		panic("join: Star needs exactly m-1 center and spoke attributes")
	}
	c := Cross(m)
	for i := 0; i < m-1; i++ {
		c.Equi(0, centerAttrs[i], i+1, spokeAttrs[i])
	}
	return c
}

// Matches reports whether a complete assignment (one tuple per stream)
// satisfies the condition. It is the reference semantics used by the oracle
// and by tests; the operator's planned execution must agree with it.
func (c *Condition) Matches(assign []*stream.Tuple) bool {
	for _, p := range c.Equis {
		if assign[p.LeftStream].Attr(p.LeftAttr) != assign[p.RightStream].Attr(p.RightAttr) {
			return false
		}
	}
	for _, p := range c.Bands {
		d := assign[p.LeftStream].Attr(p.LeftAttr) - assign[p.RightStream].Attr(p.RightAttr)
		// The negated form keeps NaN (all comparisons false) out of the band.
		if !(d >= -p.Eps && d <= p.Eps) {
			return false
		}
	}
	for _, g := range c.Generics {
		if !g.Eval(assign) {
			return false
		}
	}
	return true
}
