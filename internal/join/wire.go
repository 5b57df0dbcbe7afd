package join

// Wire-serializable condition form. The networked runtime (internal/net)
// must ship the join condition to worker processes in its hello handshake;
// equi and band predicates are plain data, but generic predicates are Go
// values — only the WhereExpr expression-tree form can cross a process
// boundary. WireCondition flattens a condition into gob-friendly structs
// and rebuilds an equivalent condition on the far side: the rebuilt
// condition evaluates the identical IEEE-754 operations in the identical
// order, so worker-side results are bit-for-bit those of the driver-side
// condition. Opaque Where closures are rejected with ErrNotWireable — the
// documented restriction of networked deployments.

import (
	"errors"
	"fmt"
)

// ErrNotWireable reports a condition that cannot be serialized for a
// remote worker: it carries at least one opaque Where closure. Express the
// predicate with WhereExpr to deploy it over the network.
var ErrNotWireable = errors.New("join: condition has an opaque Where closure and cannot be sent to remote workers — express the predicate with WhereExpr")

// WireExprNode is one flattened expression node. X and Y index earlier
// nodes of the same slice (-1 = absent); the last node is the root.
type WireExprNode struct {
	Kind         int
	X, Y         int
	Stream, Attr int
	C            float64
}

// WireCondition is the serializable form of a Condition: equi and band
// predicates verbatim, generic predicates as flattened WhereExpr trees.
type WireCondition struct {
	M        int
	Equis    []EquiPredicate
	Bands    []BandPredicate
	Generics [][]WireExprNode
}

// FlattenExpr renders an expression tree in post-order: every node's
// operands precede it and the root is last.
func FlattenExpr(e *Expr) []WireExprNode {
	var nodes []WireExprNode
	var walk func(*Expr) int
	walk = func(n *Expr) int {
		x, y := -1, -1
		if n.x != nil {
			x = walk(n.x)
		}
		if n.y != nil {
			y = walk(n.y)
		}
		nodes = append(nodes, WireExprNode{Kind: n.kind, X: x, Y: y, Stream: n.stream, Attr: n.attr, C: n.c})
		return len(nodes) - 1
	}
	walk(e)
	return nodes
}

// maxWireExprNodes caps a flattened expression; real predicates are a few
// dozen nodes.
const maxWireExprNodes = 4096

// UnflattenExpr rebuilds the expression tree from its flattened form,
// validating structure (operand indexes strictly before their node, kinds
// in range, numeric/boolean typing, boolean root) so a corrupted or
// hostile payload yields an error instead of a panic or a mistyped tree.
// The payload must be a tree, as FlattenExpr emits (it re-walks shared
// subtrees): every node but the root is an operand exactly once. A payload
// sharing operands would unfold into a tree exponential in its length the
// first time anything walked it.
func UnflattenExpr(nodes []WireExprNode) (*Expr, error) {
	if len(nodes) == 0 {
		return nil, errors.New("join: empty expression")
	}
	if len(nodes) > maxWireExprNodes {
		return nil, fmt.Errorf("join: expression has %d nodes, more than %d", len(nodes), maxWireExprNodes)
	}
	built := make([]*Expr, len(nodes))
	for i, n := range nodes {
		if n.Kind < exAttr || n.Kind > exNot {
			return nil, fmt.Errorf("join: expression node %d has unknown kind %d", i, n.Kind)
		}
		operand := func(j int) (*Expr, error) {
			if j < 0 || j >= i {
				return nil, fmt.Errorf("join: expression node %d references operand %d outside [0,%d)", i, j, i)
			}
			if built[j] == nil {
				return nil, fmt.Errorf("join: expression node %d is an operand twice", j)
			}
			e := built[j]
			built[j] = nil
			return e, nil
		}
		var x, y *Expr
		var err error
		wantX, wantY := arity(n.Kind)
		if wantX {
			if x, err = operand(n.X); err != nil {
				return nil, err
			}
		} else if n.X >= 0 {
			return nil, fmt.Errorf("join: expression node %d (%s) takes no operands", i, opName(n.Kind))
		}
		if wantY {
			if y, err = operand(n.Y); err != nil {
				return nil, err
			}
		} else if n.Y >= 0 && wantX != wantY {
			return nil, fmt.Errorf("join: expression node %d (%s) is unary", i, opName(n.Kind))
		}
		boolOps := n.Kind == exAnd || n.Kind == exOr || n.Kind == exNot
		if x != nil && x.isBool() != boolOps {
			return nil, fmt.Errorf("join: expression node %d (%s) has a mistyped operand", i, opName(n.Kind))
		}
		if y != nil && y.isBool() != boolOps {
			return nil, fmt.Errorf("join: expression node %d (%s) has a mistyped operand", i, opName(n.Kind))
		}
		if n.Kind == exAttr && (n.Stream < 0 || n.Attr < 0) {
			return nil, fmt.Errorf("join: expression node %d references negative stream/attr", i)
		}
		built[i] = &Expr{kind: n.Kind, x: x, y: y, stream: n.Stream, attr: n.Attr, c: n.C}
	}
	root := built[len(built)-1]
	for i, e := range built[:len(built)-1] {
		if e != nil {
			return nil, fmt.Errorf("join: expression node %d is not part of the tree", i)
		}
	}
	if !root.isBool() {
		return nil, errors.New("join: expression root is numeric — a predicate needs a boolean root")
	}
	return root, nil
}

// arity reports which operands a node kind takes.
func arity(kind int) (x, y bool) {
	switch kind {
	case exAttr, exConst:
		return false, false
	case exNeg, exAbs, exNot:
		return true, false
	default:
		return true, true
	}
}

// Wire flattens the condition for transport. It fails with ErrNotWireable
// when any generic predicate lacks an expression form.
func (c *Condition) Wire() (WireCondition, error) {
	wc := WireCondition{
		M:     c.M,
		Equis: append([]EquiPredicate(nil), c.Equis...),
		Bands: append([]BandPredicate(nil), c.Bands...),
	}
	for _, g := range c.Generics {
		if g.Expr == nil {
			return WireCondition{}, ErrNotWireable
		}
		wc.Generics = append(wc.Generics, FlattenExpr(g.Expr))
	}
	return wc, nil
}

// Condition rebuilds a fresh, unsealed condition from the wire form,
// validating every predicate exactly as the builder API does (returning
// errors where the builders panic, since the input crossed a trust
// boundary).
func (wc WireCondition) Condition() (c *Condition, err error) {
	defer func() {
		// The builder methods validate via panic; a hostile payload must
		// surface as an error, not kill the worker daemon's accept loop.
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("join: invalid wire condition: %v", r)
		}
	}()
	if wc.M < 2 {
		return nil, fmt.Errorf("join: wire condition has m=%d, need at least 2 streams", wc.M)
	}
	c = Cross(wc.M)
	for _, e := range wc.Equis {
		c.Equi(e.LeftStream, e.LeftAttr, e.RightStream, e.RightAttr)
	}
	for _, b := range wc.Bands {
		c.Band(b.LeftStream, b.LeftAttr, b.RightStream, b.RightAttr, b.Eps)
	}
	for _, nodes := range wc.Generics {
		e, uerr := UnflattenExpr(nodes)
		if uerr != nil {
			return nil, uerr
		}
		c.WhereExpr(e)
	}
	return c, nil
}

// Fingerprint renders the wire condition canonically — two conditions
// fingerprint equal iff their predicate lists are structurally identical.
// The networked deployment signature is built on it.
func (wc WireCondition) Fingerprint() string {
	s := fmt.Sprintf("m=%d", wc.M)
	for _, e := range wc.Equis {
		s += fmt.Sprintf(";eq%d.%d=%d.%d", e.LeftStream, e.LeftAttr, e.RightStream, e.RightAttr)
	}
	for _, b := range wc.Bands {
		s += fmt.Sprintf(";band%d.%d~%d.%d@%g", b.LeftStream, b.LeftAttr, b.RightStream, b.RightAttr, b.Eps)
	}
	for _, nodes := range wc.Generics {
		if e, err := UnflattenExpr(nodes); err == nil {
			s += ";gen=" + e.String()
		} else {
			s += ";gen=<invalid>"
		}
	}
	return s
}
