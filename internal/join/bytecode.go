package join

// The residual-predicate bytecode. An Expr tree compiles to a short
// instruction sequence for a small stack machine, truth values travelling as
// 1/0 floats. Leaves are never pushed: every instruction names where each of
// its operands comes from — the stack, an attribute of a bound tuple, a
// constant slot, or "the x operand again" for a node whose two operands are
// the same subtree by structure (so a condition decoded from the wire, which
// drops pointer sharing, compiles to the same code). The paper's distance
// predicate, a left-leaning sum of two or more squared leaf differences, is
// one instruction (bcSumSq). dx·dx + dy·dy < r² is two instructions where
// the unfused postorder form (reference_test.go) is thirteen.
//
// A program is compiled either for any assignment (CompileExpr: Multi's
// per-candidate residual classes, internal/dist's stage predicates) or for
// one probe step (compileStep): there one stream is the candidate and every
// other stream the predicate reads is bound before the step runs, so each
// maximal subtree that does not read the candidate is hoisted into a
// prologue, evaluated once per probe into a constant slot, and the body left
// for sweep to run per candidate reads only the candidate and constants —
// k − cand.a, cand.a − k, Σ(k_j − cand.a_j)² < k. A predicate that does not
// read the candidate at all is its prologue; sweep decides it once.
//
// Equivalence to the interpreter: every instruction performs exactly the
// IEEE-754 operation of its Expr node with the operands in the node's
// positions (x ∘ y, never y ∘ x; the sum of squares adds its terms left to
// right, and an explicit conversion keeps the compiler from contracting
// d·d + s into a fused multiply-add), so Eval and sweep return bit-for-bit
// what Expr.EvalBool returns. Only the order in which *operands are
// fetched* differs, and the connectives evaluate both sides where the
// interpreter short-circuits — sound because expressions are pure.

import (
	"math"

	"repro/internal/stream"
)

// VM opcodes. The arithmetic, comparison and connective codes are their Expr
// kinds; the two leaf kinds, which never become instructions, lend theirs.
const (
	bcLoad  = exAttr  // x itself: the verdict of a predicate hoisted whole
	bcStore = exConst // k[y.a] = x, pushing nothing: ends a hoisted subtree
	bcAdd   = exAdd
	bcSub   = exSub
	bcMul   = exMul
	bcDiv   = exDiv
	bcNeg   = exNeg
	bcAbs   = exAbs
	bcMin   = exMin
	bcMax   = exMax
	bcLT    = exLT
	bcLE    = exLE
	bcGT    = exGT
	bcGE    = exGE
	bcEQ    = exEQ
	bcNE    = exNE
	bcAnd   = exAnd
	bcOr    = exOr
	bcNot   = exNot
	bcSumSq = exNot + 1 // Σ (t[0] − t[1])² over terms[x.a:x.b], left to right
)

// Operand modes.
const (
	mNone  = iota // no operand (unary y, bcSumSq)
	mStack        // popped
	mAttr         // assign[a].Attr(b)
	mConst        // k[a]
	mSame         // y only: the value of x
)

type operand struct {
	mode uint8
	a, b int32
}

// instr is one VM instruction: x op y, pushed.
type instr struct {
	op   uint8
	x, y operand
}

// bcMaxStack bounds the operand stack of the VM; deeper expressions do not
// compile (callers fall back to the interpreter, which recurses).
const bcMaxStack = 32

// bcSmallStack is the operand stack Eval gives programs that fit it, so the
// common shallow predicate does not clear bcMaxStack slots per call.
const bcSmallStack = 8

// Prog is a compiled boolean expression. Eval on a program from CompileExpr
// is safe for concurrent use; a step program writes its constant slots in
// sweep and belongs to the one cstep it was compiled for.
type Prog struct {
	pre, code []instr      // once per probe (step programs only); per evaluation
	k         []float64    // constants: immediates, then the prologue's slots
	terms     [][2]operand // bcSumSq's differences
	// depth is the operand stack the unfused postorder evaluation of the
	// tree needs. Fusion only lowers it, so it bounds what code uses and
	// keeps "compiles" a property of the expression alone.
	depth int
	// fold marks a step body that is exactly the distance predicate,
	// Σ (k_j − cand.a_j)² cmp k with the constant on either side of each
	// difference and of the comparison: sweep runs it without the VM.
	fold bool
}

// CompileExpr compiles a boolean expression into bytecode, or returns nil
// when the expression is too deep for the fixed VM stack (callers keep the
// tree interpreter as the escape hatch; results are identical either way).
func CompileExpr(e *Expr) *Prog { return compileStep(e, -1) }

// compileStep compiles e for the probe step whose candidates are tuples of
// stream cand, every other stream e reads being bound when sweep runs;
// cand < 0 compiles for Eval, hoisting nothing.
func compileStep(e *Expr, cand int) *Prog {
	if e == nil || !e.isBool() {
		return nil
	}
	c := compiler{p: &Prog{depth: stackDepth(e)}, cand: cand}
	if c.p.depth > bcMaxStack {
		return nil
	}
	if root := c.value(e, &c.p.code); root.mode != mStack {
		c.p.code = append(c.p.code, instr{op: bcLoad, x: root})
	}
	if code := c.p.code; cand >= 0 && len(code) == 2 && code[0].op == bcSumSq && code[1].op >= bcLT && code[1].op <= bcNE {
		c.p.fold = oneEach(code[1].x, code[1].y, mStack, mConst)
		for _, t := range c.p.terms[code[0].x.a:code[0].x.b] {
			c.p.fold = c.p.fold && oneEach(t[0], t[1], mAttr, mConst)
		}
	}
	return c.p
}

// oneEach reports whether one of x and y has mode m and the other mode n.
func oneEach(x, y operand, m, n uint8) bool {
	return x.mode == m && y.mode == n || x.mode == n && y.mode == m
}

type compiler struct {
	p    *Prog
	cand int
}

// stackDepth is the operand stack the unfused postorder evaluation of n
// needs: a pending x under y, one more slot for a duplicated operand.
func stackDepth(n *Expr) int {
	switch {
	case n.x == nil:
		return 1
	case n.y == nil:
		return stackDepth(n.x)
	case sameExpr(n.x, n.y):
		return max(stackDepth(n.x), 2)
	}
	return max(stackDepth(n.x), 1+stackDepth(n.y))
}

// value emits into code what computes n and returns where n's consumer finds
// the result: on the stack, or — nothing emitted — in an attribute or a
// constant slot.
func (c *compiler) value(n *Expr, code *[]instr) operand {
	p := c.p
	body := code == &p.code
	switch {
	case n.kind == exConst:
		p.k = append(p.k, n.c)
		return operand{mode: mConst, a: int32(len(p.k) - 1)}
	case body && c.hoistable(n):
		slot := operand{mode: mConst, a: int32(len(p.k))}
		p.k = append(p.k, 0)
		p.pre = append(p.pre, instr{op: bcStore, x: c.value(n, &p.pre), y: operand{a: slot.a}})
		return slot
	case n.kind == exAttr:
		return operand{mode: mAttr, a: int32(n.stream), b: int32(n.attr)}
	case n.kind == exAdd && c.squares(n, body):
		from := len(p.terms)
		c.emitSquares(n, code)
		*code = append(*code, instr{op: bcSumSq, x: operand{a: int32(from), b: int32(len(p.terms))}})
		return operand{mode: mStack}
	}
	x := c.value(n.x, code)
	var y operand
	switch {
	case n.y == nil:
	case sameExpr(n.x, n.y):
		y.mode = mSame
	default:
		y = c.value(n.y, code)
	}
	*code = append(*code, instr{op: uint8(n.kind), x: x, y: y})
	return operand{mode: mStack}
}

// hoistable reports whether n is invariant across a step's candidates.
func (c *compiler) hoistable(n *Expr) bool { return c.cand >= 0 && !n.reads(c.cand) }

// squares reports whether n is a squared difference of two leaves,
// Mul(d, d) with d = Sub(leaf, leaf), or a left-leaning Add chain of them. A
// leaf is what value returns without emitting: an attribute, a constant, or
// in a step body anything hoistable.
func (c *compiler) squares(n *Expr, body bool) bool {
	if n.kind == exAdd && c.squares(n.x, body) {
		n = n.y
	}
	leaf := func(l *Expr) bool { return l.kind <= exConst || body && c.hoistable(l) }
	return n.kind == exMul && sameExpr(n.x, n.y) && n.x.kind == exSub && leaf(n.x.x) && leaf(n.x.y)
}

// emitSquares appends the differences of a chain squares accepted to terms.
func (c *compiler) emitSquares(n *Expr, code *[]instr) {
	if n.kind == exAdd {
		c.emitSquares(n.x, code)
		n = n.y
	}
	c.p.terms = append(c.p.terms, [2]operand{c.value(n.x.x, code), c.value(n.x.y, code)})
}

// reads reports whether the expression references stream s.
func (e *Expr) reads(s int) bool {
	return e != nil && (e.kind == exAttr && e.stream == s || e.x.reads(s) || e.y.reads(s))
}

// sameExpr reports structural identity: the two trees perform the same
// operations on the same attributes and bit-identical constants.
func sameExpr(x, y *Expr) bool {
	if x == y {
		return true
	}
	if x == nil || y == nil || x.kind != y.kind {
		return false
	}
	switch x.kind {
	case exAttr:
		return x.stream == y.stream && x.attr == y.attr
	case exConst:
		return math.Float64bits(x.c) == math.Float64bits(y.c)
	}
	return sameExpr(x.x, y.x) && sameExpr(x.y, y.y)
}

// Eval runs the program against an assignment with every referenced stream
// bound, returning the predicate's truth value.
func (p *Prog) Eval(assign []*stream.Tuple) bool {
	if p.depth <= bcSmallStack {
		var stack [bcSmallStack]float64
		return p.run(p.code, stack[:], assign)
	}
	var stack [bcMaxStack]float64
	return p.run(p.code, stack[:], assign)
}

// sweep appends to out, in order, the tuples of in that satisfy the step
// program as stream s's candidate; every other stream the predicate reads is
// bound in assign. out may be in[:0]. The prologue runs once, then the body
// per candidate; a predicate hoisted whole keeps everything or nothing.
func (p *Prog) sweep(assign []*stream.Tuple, s int, in, out []*stream.Tuple) []*stream.Tuple {
	var stack [bcMaxStack]float64
	p.run(p.pre, stack[:], assign)
	if p.code[0].op == bcLoad {
		if p.k[p.code[0].x.a] != 0 {
			out = append(out, in...)
		}
		return out
	}
	if p.fold {
		terms, cmp, k := p.terms[p.code[0].x.a:p.code[0].x.b], &p.code[1], p.k
		for _, cand := range in {
			var sum, d float64
			for i := range terms {
				if x, y := &terms[i][0], &terms[i][1]; x.mode == mAttr {
					d = cand.Attr(int(x.b)) - k[y.a]
				} else {
					d = k[x.a] - cand.Attr(int(y.b))
				}
				sum += float64(d * d)
			}
			x, y := sum, k[cmp.y.a]
			if cmp.x.mode == mConst {
				x, y = k[cmp.x.a], sum
			}
			if compare(cmp.op, x, y) {
				out = append(out, cand)
			}
		}
		return out
	}
	for _, cand := range in {
		assign[s] = cand
		if p.run(p.code, stack[:], assign) {
			out = append(out, cand)
		}
	}
	assign[s] = nil
	return out
}

// compare is the comparison instruction op on x and y.
func compare(op uint8, x, y float64) bool {
	switch op {
	case bcLT:
		return x < y
	case bcLE:
		return x <= y
	case bcGT:
		return x > y
	case bcGE:
		return x >= y
	case bcEQ:
		return x == y
	}
	return x != y
}

func (p *Prog) load(o operand, assign []*stream.Tuple) float64 {
	if o.mode == mAttr {
		return assign[o.a].Attr(int(o.b))
	}
	return p.k[o.a]
}

// run is the interpreter loop; stack holds at least p.depth slots.
func (p *Prog) run(code []instr, stack []float64, assign []*stream.Tuple) bool {
	sp := 0
	for i := range code {
		in := &code[i]
		var x, y float64
		switch in.y.mode {
		case mStack:
			sp--
			y = stack[sp]
		case mAttr, mConst:
			y = p.load(in.y, assign)
		}
		switch in.x.mode {
		case mStack:
			sp--
			x = stack[sp]
		case mAttr, mConst:
			x = p.load(in.x, assign)
		}
		if in.y.mode == mSame {
			y = x
		}
		switch in.op {
		case bcStore:
			p.k[in.y.a] = x
			continue
		case bcSumSq:
			terms := p.terms[in.x.a:in.x.b]
			for t := range terms {
				d := p.load(terms[t][0], assign) - p.load(terms[t][1], assign)
				x += float64(d * d) // x starts +0, and +0 + s is s for a square
			}
		case bcAdd:
			x = x + y
		case bcSub:
			x = x - y
		case bcMul:
			x = x * y
		case bcDiv:
			x = x / y
		case bcNeg:
			x = -x
		case bcAbs:
			x = math.Abs(x)
		case bcMin:
			x = math.Min(x, y)
		case bcMax:
			x = math.Max(x, y)
		case bcLT, bcLE, bcGT, bcGE, bcEQ, bcNE:
			x = b2f(compare(in.op, x, y))
		case bcAnd:
			x = x * y // both are 1/0
		case bcOr:
			x = b2f(x+y != 0) // both are 1/0
		case bcNot:
			x = 1 - x
		}
		stack[sp] = x
		sp++
	}
	return stack[0] != 0
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
