package join

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

// doubling is the hostile payload: node i = Add(i−1, i−1), so n nodes
// describe a tree of 2^(n−2) leaves in n·48 bytes.
func doubling(n int) []WireExprNode {
	nodes := []WireExprNode{{Kind: exAttr, X: -1, Y: -1}}
	for i := 1; i < n-1; i++ {
		nodes = append(nodes, WireExprNode{Kind: exAdd, X: i - 1, Y: i - 1})
	}
	return append(nodes, WireExprNode{Kind: exLT, X: n - 2, Y: n - 2})
}

// TestUnflattenExprRejectsSharedOperands: a payload whose nodes share
// operands must be refused before anything walks the exponential tree it
// stands for — 24 nodes took seconds and 100 MB to fingerprint, 40 never
// returned — and so must unreachable nodes and oversized payloads, all as
// errors, through every entry point a worker daemon's hello reaches.
func TestUnflattenExprRejectsSharedOperands(t *testing.T) {
	leaf := WireExprNode{Kind: exAttr, X: -1, Y: -1}
	long := make([]WireExprNode, 0, maxWireExprNodes+3)
	long = append(long, leaf)
	for len(long) < maxWireExprNodes {
		long = append(long, WireExprNode{Kind: exNeg, X: len(long) - 1, Y: -1})
	}
	long = append(long, leaf, WireExprNode{Kind: exLT, X: len(long) - 1, Y: len(long)})
	cases := []struct {
		name  string
		nodes []WireExprNode
		want  string
	}{
		{"doubling24", doubling(24), "operand twice"},
		{"doubling64", doubling(64), "operand twice"},
		{"sameIndexTwice", []WireExprNode{leaf, {Kind: exLT, X: 0, Y: 0}}, "operand twice"},
		{"sharedAcrossNodes", []WireExprNode{leaf, {Kind: exNeg, X: 0, Y: -1}, {Kind: exLT, X: 0, Y: 1}}, "operand twice"},
		{"orphan", []WireExprNode{leaf, leaf, leaf, {Kind: exLT, X: 0, Y: 2}}, "node 1 is not part of the tree"},
		{"tooLong", long, "more than"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			if e, err := UnflattenExpr(c.nodes); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("UnflattenExpr = %v, %v; want an error containing %q", e, err, c.want)
			}
			wc := WireCondition{M: 2, Generics: [][]WireExprNode{c.nodes}}
			if cond, err := wc.Condition(); err == nil {
				t.Fatalf("Condition() accepted the payload: %v", cond)
			}
			if fp := wc.Fingerprint(); !strings.HasSuffix(fp, ";gen=<invalid>") {
				t.Fatalf("Fingerprint() = %q, want the invalid marker", fp)
			}
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Fatalf("rejecting the payload took %v", d)
			}
		})
	}
	// The longest payload still accepted is handled in linear time.
	ok := append(long[:maxWireExprNodes-2:maxWireExprNodes-2], leaf, WireExprNode{Kind: exLT, X: maxWireExprNodes - 3, Y: maxWireExprNodes - 2})
	start := time.Now()
	e, err := UnflattenExpr(ok)
	if err != nil {
		t.Fatalf("a %d-node chain was refused: %v", len(ok), err)
	}
	if !reflect.DeepEqual(FlattenExpr(e), ok) || CompileExpr(e) == nil || len(e.String()) == 0 {
		t.Fatal("the longest accepted chain does not round-trip, compile and print")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("the longest accepted chain took %v", d)
	}
}

// FuzzUnflattenExpr decodes arbitrary bytes into a node list — kinds,
// back-references, dangling and repeated operands — and requires an error or
// a tree that flattens back to the same list, prints, compiles, and
// evaluates as the interpreter does. No input may panic or hang.
func FuzzUnflattenExpr(f *testing.F) {
	enc := func(nodes []WireExprNode) []byte {
		var b []byte
		for i, n := range nodes {
			rel := func(j int) byte {
				if j < 0 {
					return 255
				}
				return byte(i - 1 - j)
			}
			b = append(b, byte(n.Kind), rel(n.X), rel(n.Y), byte(n.Stream<<2|n.Attr))
		}
		return b
	}
	dx := Sub(Attr(0, 1), Attr(1, 1))
	dy := Sub(Attr(0, 2), Attr(1, 2))
	f.Add(enc(FlattenExpr(Lt(Add(Mul(dx, dx), Mul(dy, dy)), ConstOf(25)))))
	f.Add(enc(FlattenExpr(Or(Not(Le(Abs(Attr(0, 0)), Neg(Attr(1, 0)))), Ne(MinOf(Attr(0, 1), Attr(1, 1)), ConstOf(3))))))
	f.Add(enc(doubling(24)))
	f.Add(enc(doubling(64)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var nodes []WireExprNode
		for i := 0; i+4 <= len(data); i += 4 {
			at := func(b byte) int {
				if b == 255 {
					return -1
				}
				return len(nodes) - 1 - int(b) // may run below 0: an invalid reference
			}
			nodes = append(nodes, WireExprNode{Kind: int(data[i]) % (exNot + 2), X: at(data[i+1]), Y: at(data[i+2]),
				Stream: int(data[i+3]>>2) % 2, Attr: int(data[i+3] & 3), C: fuzzVals[int(data[i+3])%len(fuzzVals)]})
		}
		e, err := UnflattenExpr(nodes)
		if err != nil {
			return
		}
		back := FlattenExpr(e)
		if len(back) != len(nodes) {
			t.Fatalf("%d nodes unflatten to a tree of %d", len(nodes), len(back))
		}
		again, err := UnflattenExpr(back)
		if err != nil || again.String() != e.String() {
			t.Fatalf("second round trip: %v; %s, was %s", err, again, e)
		}
		assign := []*stream.Tuple{tup(0, 1, 0, 1, -2.5, 7), tup(1, 1, 1, 0.1, 1e16)}
		if p := CompileExpr(e); p != nil && p.Eval(assign) != e.EvalBool(assign) {
			t.Fatalf("Eval disagrees with EvalBool on %s", e)
		}
	})
}
