package join

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stream"
)

// sameCode compares programs instruction by instruction, constants by bit
// pattern so NaN immediates compare equal to themselves.
func sameCode(a, b *Prog) bool {
	if a == nil || b == nil {
		return a == b
	}
	sameK := slices.EqualFunc(a.k, b.k, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	return a.depth == b.depth && slices.Equal(a.pre, b.pre) && slices.Equal(a.code, b.code) && slices.Equal(a.terms, b.terms) && sameK
}

// randNumExpr grows a random numeric expression over a pool of already-built
// subtrees, so operands are frequently the SAME node (a DAG by pointer) or a
// separately built structural twin of one.
func randNumExpr(rng *rand.Rand, pool []*Expr, depth int) *Expr {
	if depth == 0 || rng.Intn(5) == 0 {
		switch rng.Intn(4) {
		case 0:
			consts := []float64{0, math.Copysign(0, -1), 1, -2.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e308}
			return ConstOf(consts[rng.Intn(len(consts))])
		default:
			return Attr(rng.Intn(2), rng.Intn(3))
		}
	}
	pick := func() *Expr {
		if len(pool) > 0 && rng.Intn(2) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return randNumExpr(rng, pool, depth-1)
	}
	x := pick()
	y := x // shared by pointer
	switch rng.Intn(3) {
	case 0:
		y = pick()
	case 1:
		// A structural twin with no shared pointers, as wire decoding builds.
		y = cloneExpr(x)
	}
	switch rng.Intn(8) {
	case 0:
		return Add(x, y)
	case 1:
		return Sub(x, y)
	case 2:
		return Mul(x, y)
	case 3:
		return Div(x, y)
	case 4:
		return MinOf(x, y)
	case 5:
		return MaxOf(x, y)
	case 6:
		return Neg(x)
	default:
		return Abs(x)
	}
}

// cloneExpr deep-copies a tree: equal in structure, no node shared.
func cloneExpr(e *Expr) *Expr {
	if e == nil {
		return nil
	}
	c := *e
	c.x, c.y = cloneExpr(e.x), cloneExpr(e.y)
	return &c
}

func randBoolExpr(rng *rand.Rand, depth int) *Expr {
	var pool []*Expr
	for i := 0; i < 4; i++ {
		pool = append(pool, randNumExpr(rng, pool, 3))
	}
	cmp := func() *Expr {
		x, y := pool[rng.Intn(len(pool))], randNumExpr(rng, pool, depth)
		if rng.Intn(4) == 0 {
			y = x
		}
		return []func(x, y *Expr) *Expr{Lt, Le, Gt, Ge, Eq, Ne}[rng.Intn(6)](x, y)
	}
	e := cmp()
	for i := rng.Intn(3); i > 0; i-- {
		o := cmp()
		if rng.Intn(4) == 0 {
			o = e // And(e, e): a shared boolean subtree
		}
		switch rng.Intn(3) {
		case 0:
			e = And(e, o)
		case 1:
			e = Or(e, o)
		default:
			e = Not(e)
		}
	}
	return e
}

func randAssign(rng *rand.Rand) []*stream.Tuple {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 3, -2.5, 1e308, -1e308, math.NaN(), math.Inf(1), math.Inf(-1)}
	assign := make([]*stream.Tuple, 2)
	for s := range assign {
		attrs := make([]float64, 2+rng.Intn(2)) // attribute 2 sometimes out of range: reads 0
		for i := range attrs {
			attrs[i] = vals[rng.Intn(len(vals))]
		}
		assign[s] = tup(s, 1, uint64(s), attrs...)
	}
	return assign
}

// TestProgEvalMatchesInterpreter: on random expression DAGs with shared
// subtrees (by pointer and by structure) and NaN/±Inf/±0 operands, the
// bytecode — including its same-operand mode — returns exactly what the tree
// interpreter returns, and an expression that went through the wire form
// (which drops all pointer sharing) compiles to identical code.
func TestProgEvalMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dups := 0
	for n := 0; n < 2000; n++ {
		e := randBoolExpr(rng, 3)
		p := CompileExpr(e)
		if p == nil {
			t.Fatalf("expr %d did not compile: %s", n, e)
		}
		for _, in := range p.code {
			if in.y.mode == mSame {
				dups++
			}
		}
		wired, err := UnflattenExpr(FlattenExpr(e))
		if err != nil {
			t.Fatalf("expr %d: wire round trip: %v", n, err)
		}
		if !sameCode(p, CompileExpr(wired)) {
			t.Fatalf("expr %d compiles differently after the wire round trip: %s", n, e)
		}
		for k := 0; k < 20; k++ {
			assign := randAssign(rng)
			if got, want := p.Eval(assign), e.EvalBool(assign); got != want {
				t.Fatalf("expr %d: Eval = %v, EvalBool = %v on %v, %v: %s", n, got, want, assign[0], assign[1], e)
			}
		}
	}
	if dups < 500 {
		t.Fatalf("only %d same-operand instructions in 2000 programs: the generator does not exercise sharing", dups)
	}
}

// TestProgCircleResidualCode pins the soccer residual dx·dx + dy·dy < r²:
// the sum of squares and the comparison, at the depth 3 its unfused thirteen
// instructions need, from a pointer-sharing tree and from its structural
// twin alike; and for either probe step two hoisted loads in front of that
// same two-instruction body.
func TestProgCircleResidualCode(t *testing.T) {
	dx := Sub(Attr(0, 1), Attr(1, 1))
	dy := Sub(Attr(0, 2), Attr(1, 2))
	shared := Lt(Add(Mul(dx, dx), Mul(dy, dy)), ConstOf(25))
	twin := Lt(Add(
		Mul(Sub(Attr(0, 1), Attr(1, 1)), Sub(Attr(0, 1), Attr(1, 1))),
		Mul(Sub(Attr(0, 2), Attr(1, 2)), Sub(Attr(0, 2), Attr(1, 2)))), ConstOf(25))
	p := CompileExpr(shared)
	if len(p.code) != 2 || p.depth != 3 || p.code[0].op != bcSumSq || len(p.terms) != 2 {
		t.Fatalf("circle residual compiled to %d instructions at depth %d, want sumsq + lt at 3", len(p.code), p.depth)
	}
	if ref := refCompileExpr(shared); len(ref.code) != 13 || ref.depth != 3 {
		t.Fatalf("unfused reference is %d instructions at depth %d, want 13 at 3", len(ref.code), ref.depth)
	}
	if !sameCode(p, CompileExpr(twin)) {
		t.Fatal("structural twin compiled to different code")
	}
	for cand := 0; cand < 2; cand++ {
		k := compileStep(shared, cand)
		if len(k.pre) != 2 || len(k.code) != 2 || k.depth != 3 {
			t.Fatalf("step %d: %d prologue + %d body instructions at depth %d, want 2 + 2 at 3", cand, len(k.pre), len(k.code), k.depth)
		}
		for _, term := range k.terms {
			if term[cand].mode != mAttr || term[1-cand].mode != mConst {
				t.Fatalf("step %d: term %+v does not keep the candidate on its own side of the difference", cand, term)
			}
		}
	}
}

// TestProgSharedSubtreeAtStackLimit puts a shared subtree s·s under k pending
// left operands, so the dup lands at stack depth k+2 — 31, 32 and 33 around
// the VM's 32-slot limit: the first two compile (the deeper one through the
// large stack) and agree with the interpreter, the third is rejected and
// falls back to it.
func TestProgSharedSubtreeAtStackLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, bcSmallStack - 2, bcSmallStack - 1, 29, 30, 31} {
		s := Sub(Attr(0, 0), Attr(1, 0))
		e := Mul(s, s)
		for i := 0; i < k; i++ {
			e = Add(Attr(i%2, 1), e)
		}
		p := CompileExpr(Lt(e, ConstOf(10)))
		if want := k + 2; want > bcMaxStack {
			if p != nil {
				t.Fatalf("k=%d: compiled at depth %d, over the %d-slot stack", k, p.depth, bcMaxStack)
			}
			continue
		} else if p == nil || p.depth != want {
			t.Fatalf("k=%d: program %+v, want depth %d", k, p, want)
		}
		for n := 0; n < 200; n++ {
			assign := randAssign(rng)
			if got, want := p.Eval(assign), Lt(e, ConstOf(10)).EvalBool(assign); got != want {
				t.Fatalf("k=%d: Eval = %v, EvalBool = %v on %v, %v", k, got, want, assign[0], assign[1])
			}
		}
	}
}
