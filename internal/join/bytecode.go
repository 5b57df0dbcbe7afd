package join

// The residual-predicate bytecode. CompileExpr flattens an Expr tree into a
// postorder instruction sequence for a small stack machine: attribute loads,
// constants, float arithmetic, comparisons and boolean connectives, with
// truth values represented as 1/0 floats on the same stack. Evaluation is
// one tight loop over the instruction array — no closure calls, no
// recursion, no allocation (the operand stack is a local array sized to the
// program's compiled depth, which also makes a Prog safe for concurrent Eval
// from several workers).
//
// A binary node whose two operands are the same subtree — by structure, so
// a condition decoded from the wire compiles to the same code as the
// pointer-sharing tree it was flattened from — evaluates the subtree once
// and duplicates the value (dx·dx + dy·dy < r²: 17 → 13 instructions, depth
// 4 → 3). Expressions are pure, so the second evaluation could only
// reproduce the first bit for bit.
//
// Equivalence to the interpreter: every instruction performs exactly the
// IEEE-754 operation its Expr node's interpreter case performs, and the
// postorder flattening preserves operand evaluation order, so Eval returns
// bit-for-bit the same truth value as Expr.EvalBool. The connectives are the
// only divergence in *work done*: the VM always evaluates both operands
// where the interpreter short-circuits — sound because expressions are pure
// (attribute loads and arithmetic have no side effects), so the skipped
// subtree can only produce a value whose consumption AND/OR would ignore
// anyway.

import (
	"math"

	"repro/internal/stream"
)

// VM opcodes. Binary ops pop y then x and push the result.
const (
	bcAttr  = iota // push assign[a].Attr(b)
	bcConst        // push constant c
	bcAdd
	bcSub
	bcMul
	bcDiv
	bcNeg
	bcAbs
	bcMin
	bcMax
	bcLT
	bcLE
	bcGT
	bcGE
	bcEQ
	bcNE
	bcAnd
	bcOr
	bcNot
	bcDup // push a copy of the top of the stack
)

// bcMaxStack bounds the operand stack of the VM; CompileExpr rejects deeper
// expressions (callers fall back to the interpreter, which recurses).
const bcMaxStack = 32

// instr is one VM instruction.
type instr struct {
	op   uint8
	a, b int32   // bcAttr: stream, attribute
	c    float64 // bcConst: immediate
}

// bcSmallStack is the operand stack Eval gives programs that fit it, so the
// common shallow predicate does not clear bcMaxStack slots per call.
const bcSmallStack = 8

// Prog is a compiled boolean expression. Eval is safe for concurrent use.
type Prog struct {
	code  []instr
	depth int // operand stack slots the program needs
}

// CompileExpr compiles a boolean expression into bytecode, or returns nil
// when the expression is too deep for the fixed VM stack (callers keep the
// tree interpreter as the escape hatch; results are identical either way).
func CompileExpr(e *Expr) *Prog {
	if e == nil || !e.isBool() {
		return nil
	}
	p := &Prog{}
	depth := 0
	push := func(in instr) bool {
		depth++
		p.depth = max(p.depth, depth)
		p.code = append(p.code, in)
		return p.depth <= bcMaxStack
	}
	var emit func(n *Expr) bool
	emit = func(n *Expr) bool {
		switch n.kind {
		case exAttr:
			return push(instr{op: bcAttr, a: int32(n.stream), b: int32(n.attr)})
		case exConst:
			return push(instr{op: bcConst, c: n.c})
		}
		if !emit(n.x) {
			return false
		}
		if n.y != nil {
			// Binary: the second operand takes a slot, the op frees it again.
			if sameExpr(n.x, n.y) {
				if !push(instr{op: bcDup}) {
					return false
				}
			} else if !emit(n.y) {
				return false
			}
			depth--
		}
		// The Expr and VM opcode tables are aligned by construction.
		p.code = append(p.code, instr{op: uint8(n.kind)})
		return true
	}
	if !emit(e) {
		return nil
	}
	return p
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
		return p.run(stack[:], assign)
	}
	var stack [bcMaxStack]float64
	return p.run(stack[:], assign)
}

// run is the interpreter loop; stack holds at least p.depth slots.
func (p *Prog) run(stack []float64, assign []*stream.Tuple) bool {
	sp := 0
	for i := range p.code {
		in := &p.code[i]
		switch in.op {
		case bcAttr:
			stack[sp] = assign[in.a].Attr(int(in.b))
			sp++
		case bcConst:
			stack[sp] = in.c
			sp++
		case bcDup:
			stack[sp] = stack[sp-1]
			sp++
		case bcAdd:
			sp--
			stack[sp-1] = stack[sp-1] + stack[sp]
		case bcSub:
			sp--
			stack[sp-1] = stack[sp-1] - stack[sp]
		case bcMul:
			sp--
			stack[sp-1] = stack[sp-1] * stack[sp]
		case bcDiv:
			sp--
			stack[sp-1] = stack[sp-1] / stack[sp]
		case bcNeg:
			stack[sp-1] = -stack[sp-1]
		case bcAbs:
			stack[sp-1] = math.Abs(stack[sp-1])
		case bcMin:
			sp--
			stack[sp-1] = math.Min(stack[sp-1], stack[sp])
		case bcMax:
			sp--
			stack[sp-1] = math.Max(stack[sp-1], stack[sp])
		case bcLT:
			sp--
			stack[sp-1] = b2f(stack[sp-1] < stack[sp])
		case bcLE:
			sp--
			stack[sp-1] = b2f(stack[sp-1] <= stack[sp])
		case bcGT:
			sp--
			stack[sp-1] = b2f(stack[sp-1] > stack[sp])
		case bcGE:
			sp--
			stack[sp-1] = b2f(stack[sp-1] >= stack[sp])
		case bcEQ:
			sp--
			stack[sp-1] = b2f(stack[sp-1] == stack[sp])
		case bcNE:
			sp--
			stack[sp-1] = b2f(stack[sp-1] != stack[sp])
		case bcAnd:
			sp--
			stack[sp-1] = stack[sp-1] * stack[sp] // both are 1/0
		case bcOr:
			sp--
			stack[sp-1] = b2f(stack[sp-1]+stack[sp] != 0) // both are 1/0
		case bcNot:
			stack[sp-1] = 1 - stack[sp-1]
		}
	}
	return stack[0] != 0
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
