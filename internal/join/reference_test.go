package join

// The references the step lowering is held against (house rule: a perf PR
// keeps its predecessor as a differential). refCompileExpr/refProg are the
// unfused compiler and stack VM that CompileExpr was before its peephole
// fusions — one instruction per Expr node plus dup, every leaf a push — and
// refStepFilter is the per-candidate check loop the step sweep replaced:
// bind the candidate, evaluate the whole predicate, keep or drop.
// FuzzCompileExpr and TestStepSweepMatchesReference assert
// Expr.EvalBool ≡ refProg.Eval ≡ Prog.Eval ≡ step sweep.
//
// refCandidates is the band step's probe before a fold moved into the grid
// scan — Grid.AppendBand, then Prog.sweep — and unfuse turns an operator
// back into that probe, its results stamped by stream.NewResult.
// TestFusedProbeMatchesUnfused holds the fused probe to both: the same
// candidate list at every level of every probe, the same result sequence,
// TS included. Each of these mutations fails it: < decided as ≤ in the
// grid scan, a term reading the other stored key, a fold that reads the
// sID or is not centered fused anyway, ≤ skipping the box at bound =
// fl(ε²), a result stamped with the candidate's TS.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stream"
)

// VM opcodes. Binary ops pop y then x and push the result.
const (
	rbcAttr  = iota // push assign[a].Attr(b)
	rbcConst        // push constant c
	rbcAdd
	rbcSub
	rbcMul
	rbcDiv
	rbcNeg
	rbcAbs
	rbcMin
	rbcMax
	rbcLT
	rbcLE
	rbcGT
	rbcGE
	rbcEQ
	rbcNE
	rbcAnd
	rbcOr
	rbcNot
	rbcDup // push a copy of the top of the stack
)

// refInstr is one reference VM instruction.
type refInstr struct {
	op   uint8
	a, b int32   // rbcAttr: stream, attribute
	c    float64 // rbcConst: immediate
}

// refProg is a boolean expression compiled without any fusion.
type refProg struct {
	code  []refInstr
	depth int // operand stack slots the program needs
}

// refCompileExpr compiles a boolean expression into bytecode, or returns nil
// when the expression is too deep for the fixed VM stack (callers keep the
// tree interpreter as the escape hatch; results are identical either way).
func refCompileExpr(e *Expr) *refProg {
	if e == nil || !e.isBool() {
		return nil
	}
	p := &refProg{}
	depth := 0
	push := func(in refInstr) bool {
		depth++
		p.depth = max(p.depth, depth)
		p.code = append(p.code, in)
		return p.depth <= bcMaxStack
	}
	var emit func(n *Expr) bool
	emit = func(n *Expr) bool {
		switch n.kind {
		case exAttr:
			return push(refInstr{op: rbcAttr, a: int32(n.stream), b: int32(n.attr)})
		case exConst:
			return push(refInstr{op: rbcConst, c: n.c})
		}
		if !emit(n.x) {
			return false
		}
		if n.y != nil {
			// Binary: the second operand takes a slot, the op frees it again.
			if sameExpr(n.x, n.y) {
				if !push(refInstr{op: rbcDup}) {
					return false
				}
			} else if !emit(n.y) {
				return false
			}
			depth--
		}
		// The Expr and VM opcode tables are aligned by construction.
		p.code = append(p.code, refInstr{op: uint8(n.kind)})
		return true
	}
	if !emit(e) {
		return nil
	}
	return p
}

// Eval runs the program against an assignment with every referenced stream
// bound, returning the predicate's truth value.
func (p *refProg) Eval(assign []*stream.Tuple) bool {
	if p.depth <= bcSmallStack {
		var stack [bcSmallStack]float64
		return p.run(stack[:], assign)
	}
	var stack [bcMaxStack]float64
	return p.run(stack[:], assign)
}

// run is the interpreter loop; stack holds at least p.depth slots.
func (p *refProg) run(stack []float64, assign []*stream.Tuple) bool {
	sp := 0
	for i := range p.code {
		in := &p.code[i]
		switch in.op {
		case rbcAttr:
			stack[sp] = assign[in.a].Attr(int(in.b))
			sp++
		case rbcConst:
			stack[sp] = in.c
			sp++
		case rbcDup:
			stack[sp] = stack[sp-1]
			sp++
		case rbcAdd:
			sp--
			stack[sp-1] = stack[sp-1] + stack[sp]
		case rbcSub:
			sp--
			stack[sp-1] = stack[sp-1] - stack[sp]
		case rbcMul:
			sp--
			stack[sp-1] = stack[sp-1] * stack[sp]
		case rbcDiv:
			sp--
			stack[sp-1] = stack[sp-1] / stack[sp]
		case rbcNeg:
			stack[sp-1] = -stack[sp-1]
		case rbcAbs:
			stack[sp-1] = math.Abs(stack[sp-1])
		case rbcMin:
			sp--
			stack[sp-1] = math.Min(stack[sp-1], stack[sp])
		case rbcMax:
			sp--
			stack[sp-1] = math.Max(stack[sp-1], stack[sp])
		case rbcLT:
			sp--
			stack[sp-1] = b2f(stack[sp-1] < stack[sp])
		case rbcLE:
			sp--
			stack[sp-1] = b2f(stack[sp-1] <= stack[sp])
		case rbcGT:
			sp--
			stack[sp-1] = b2f(stack[sp-1] > stack[sp])
		case rbcGE:
			sp--
			stack[sp-1] = b2f(stack[sp-1] >= stack[sp])
		case rbcEQ:
			sp--
			stack[sp-1] = b2f(stack[sp-1] == stack[sp])
		case rbcNE:
			sp--
			stack[sp-1] = b2f(stack[sp-1] != stack[sp])
		case rbcAnd:
			sp--
			stack[sp-1] = stack[sp-1] * stack[sp] // both are 1/0
		case rbcOr:
			sp--
			stack[sp-1] = b2f(stack[sp-1]+stack[sp] != 0) // both are 1/0
		case rbcNot:
			stack[sp-1] = 1 - stack[sp-1]
		}
	}
	return stack[0] != 0
}

// refStepFilter is the enumeration loop's per-candidate check as it was
// before the sweep: bind the candidate, run the unfused program.
func refStepFilter(p *refProg, assign []*stream.Tuple, s int, in []*stream.Tuple) []*stream.Tuple {
	var out []*stream.Tuple
	for _, cand := range in {
		assign[s] = cand
		if p.Eval(assign) {
			out = append(out, cand)
		}
	}
	assign[s] = nil
	return out
}

// fuzzVals are the attribute and constant values of the lowering fuzzer:
// every IEEE-754 class, and magnitudes whose sums round differently in a
// different order.
var fuzzVals = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, -3, 0.1, 7, 1e8, -1e8, 1e16, 1e308, -1e308,
	math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1.1125369292536007e-308, math.MaxFloat64,
}

// byteSrc drives the generator from fuzz input; exhausted, it reads zeros,
// which every choice below maps to a leaf.
type byteSrc struct {
	b []byte
	i int
}

func (s *byteSrc) next(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1]) % n
}

const fuzzStreams = 3

func (s *byteSrc) leaf() *Expr {
	if s.next(3) == 2 {
		return ConstOf(fuzzVals[s.next(len(fuzzVals))])
	}
	return Attr(s.next(fuzzStreams), s.next(3)) // attribute 2 is sometimes out of range: reads 0
}

// second picks a binary node's other operand: x again by pointer, a
// structural twin as wire decoding builds, or a fresh subtree.
func (s *byteSrc) second(x *Expr, fresh func() *Expr) *Expr {
	switch s.next(4) {
	case 1:
		return x
	case 2:
		return cloneExpr(x)
	}
	return fresh()
}

// squares is the distance shape: a left-leaning sum of two to four squared
// leaf differences, mostly between the same two streams.
func (s *byteSrc) squares() *Expr {
	var e *Expr
	p, q := s.next(fuzzStreams), s.next(fuzzStreams)
	for n := 2 + s.next(3); n > 0; n-- {
		x, y := Attr(p, s.next(3)), Attr(q, s.next(3))
		switch s.next(4) {
		case 1:
			x, y = y, x
		case 2:
			x = s.leaf()
		}
		d := Sub(x, y)
		if e == nil {
			e = Mul(d, d)
		} else {
			e = Add(e, Mul(d, cloneExpr(d)))
		}
	}
	return e
}

func (s *byteSrc) num(depth int) *Expr {
	op := s.next(13)
	if depth == 0 || op < 2 {
		return s.leaf()
	}
	sub := func() *Expr { return s.num(depth - 1) }
	switch op {
	case 2:
		return s.squares()
	case 3: // a right-leaning chain: one more pending operand per link
		e := sub()
		for k := s.next(2 * bcMaxStack); k > 0; k-- {
			e = Add(s.leaf(), e)
		}
		return e
	case 4:
		return Neg(sub())
	case 5:
		return Abs(sub())
	}
	x := sub()
	y := s.second(x, sub)
	return []func(x, y *Expr) *Expr{Add, Sub, Mul, Div, MinOf, MaxOf, Add}[op-6](x, y)
}

func (s *byteSrc) boolean(depth int) *Expr {
	op := s.next(10)
	if depth == 0 || op < 7 {
		x := s.num(3)
		y := s.second(x, func() *Expr { return s.num(3) })
		switch {
		case op != 6:
		case s.next(2) == 0: // the distance predicate, either way round
			x, y = s.squares(), s.leaf()
		default:
			x, y = s.leaf(), s.squares()
		}
		return []func(x, y *Expr) *Expr{Lt, Le, Gt, Ge, Eq, Ne}[s.next(6)](x, y)
	}
	x := s.boolean(depth - 1)
	switch op {
	case 7:
		return And(x, s.second(x, func() *Expr { return s.boolean(depth - 1) }))
	case 8:
		return Or(x, s.second(x, func() *Expr { return s.boolean(depth - 1) }))
	}
	return Not(x)
}

func (s *byteSrc) tuple(src int) *stream.Tuple {
	attrs := make([]float64, 2+s.next(2))
	for i := range attrs {
		attrs[i] = fuzzVals[s.next(len(fuzzVals))]
	}
	return tup(src, 1, 0, attrs...)
}

// checkLowering holds one expression's lowerings against each other: the
// tree interpreter, the unfused reference program, the fused program, and —
// for every choice of candidate stream, over two probes with different bound
// tuples so a stale prologue shows — the step sweep against the reference
// per-candidate loop, in place as cstep.candidates runs it. The wire round
// trip must compile to the same code.
func checkLowering(t *testing.T, e *Expr, s *byteSrc) {
	ref, prog := refCompileExpr(e), CompileExpr(e)
	if (ref == nil) != (prog == nil) || ref != nil && ref.depth != prog.depth {
		t.Fatalf("reference compiles to %+v, fused to %+v: %s", ref, prog, e)
	}
	wired, err := UnflattenExpr(FlattenExpr(e))
	if err != nil && len(FlattenExpr(e)) <= maxWireExprNodes {
		t.Fatalf("wire round trip: %v: %s", err, e)
	}
	if err == nil && !sameCode(prog, CompileExpr(wired)) {
		t.Fatalf("compiles differently after the wire round trip: %s", e)
	}
	steps := make([]*Prog, fuzzStreams)
	for cand := range steps {
		steps[cand] = compileStep(e, cand)
		if (steps[cand] == nil) != (prog == nil) {
			t.Fatalf("step %d compiles to %+v, the expression to %+v: %s", cand, steps[cand], prog, e)
		}
		if err == nil && !sameCode(steps[cand], compileStep(wired, cand)) {
			t.Fatalf("step %d compiles differently after the wire round trip: %s", cand, e)
		}
	}
	for probe := 0; probe < 2; probe++ {
		assign := make([]*stream.Tuple, fuzzStreams)
		for src := range assign {
			assign[src] = s.tuple(src)
		}
		want := e.EvalBool(assign)
		if prog == nil {
			continue
		}
		if got := ref.Eval(assign); got != want {
			t.Fatalf("reference Eval = %v, EvalBool = %v on %v: %s", got, want, assign, e)
		}
		if got := prog.Eval(assign); got != want {
			t.Fatalf("Eval = %v, EvalBool = %v on %v: %s", got, want, assign, e)
		}
		for cand, step := range steps {
			bound := slices.Clone(assign)
			in := make([]*stream.Tuple, 1+s.next(6))
			for i := range in {
				in[i] = s.tuple(cand)
			}
			in[0] = assign[cand]
			want := refStepFilter(ref, bound, cand, in)
			for _, c := range want {
				bound[cand] = c
				if !e.EvalBool(bound) {
					t.Fatalf("reference loop kept %v, which EvalBool rejects under %v: %s", c, bound, e)
				}
			}
			bound[cand] = nil
			got := step.sweep(bound, cand, in, in[:0])
			if !slices.Equal(got, want) {
				t.Fatalf("probe %d, candidate stream %d: sweep kept %v, the per-candidate loop %v, under %v: %s",
					probe, cand, got, want, bound, e)
			}
			if bound[cand] != nil {
				t.Fatalf("sweep left candidate stream %d bound", cand)
			}
		}
	}
}

// FuzzCompileExpr runs checkLowering on trees grown from the fuzz input: all
// opcodes, operands shared by pointer and by structure, the distance shape,
// chains past bcMaxStack, and values of every float class.
func FuzzCompileExpr(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 2, 9}) // (s0.a0 − s1.a0)² + (s0.a1 − s1.a1)² < const
	f.Add([]byte{0, 3, 2, 60, 0, 1, 1, 0})                           // a chain past the stack
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 24; i++ {
		b := make([]byte, 16+rng.Intn(200))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteSrc{b: data}
		checkLowering(t, s.boolean(2), s)
	})
}

// TestStepSweepMatchesReference is FuzzCompileExpr's property on a fixed
// seed plus the shapes the lowering special-cases, each with operands that
// make a wrong operand order, a stale prologue or a reassociated sum flip
// the verdict (the mutation checks in docs/history/PR23_step_kernels.md).
func TestStepSweepMatchesReference(t *testing.T) {
	sq := func(x, y *Expr) *Expr { d := Sub(x, y); return Mul(d, d) }
	shapes := []*Expr{
		// The soccer circle, both comparison orientations.
		Lt(Add(sq(Attr(0, 0), Attr(1, 0)), sq(Attr(0, 1), Attr(1, 1))), ConstOf(25)),
		Gt(ConstOf(25), Add(sq(Attr(1, 0), Attr(0, 0)), sq(Attr(0, 1), Attr(1, 1)))),
		// Three terms, across three streams, against a bound attribute.
		Le(Add(Add(sq(Attr(0, 0), Attr(1, 0)), sq(Attr(1, 1), Attr(2, 1))), sq(Attr(2, 0), Attr(0, 1))), Attr(2, 2)),
		// A sum that is not all squares, a right-leaning one, a lone square.
		Lt(Add(sq(Attr(0, 0), Attr(1, 0)), Abs(Attr(1, 1))), ConstOf(9)),
		Lt(Add(sq(Attr(0, 0), Attr(1, 0)), Add(sq(Attr(0, 1), Attr(1, 1)), sq(Attr(0, 2), Attr(1, 2)))), ConstOf(9)),
		Ne(sq(Attr(0, 0), Attr(1, 0)), sq(Attr(1, 0), Attr(0, 0))),
		// A difference outside a square: k − cand is not cand − k.
		Lt(Sub(Attr(0, 0), Attr(1, 0)), ConstOf(1)),
		Ge(Div(Attr(1, 1), Sub(Attr(2, 0), Attr(0, 0))), Neg(Attr(1, 0))),
		// Predicates that never read some candidate stream.
		Lt(Attr(0, 0), ConstOf(1)),
		Eq(ConstOf(1), ConstOf(1)),
		Or(Not(Lt(Attr(0, 0), Attr(0, 1))), And(Le(Attr(1, 0), Attr(2, 0)), Ne(MinOf(Attr(1, 1), Attr(0, 1)), MaxOf(Attr(2, 1), ConstOf(0))))),
	}
	rng := rand.New(rand.NewSource(29))
	for _, e := range shapes {
		for n := 0; n < 300; n++ {
			b := make([]byte, 64)
			rng.Read(b)
			checkLowering(t, e, &byteSrc{b: b})
		}
	}
	folds := 0
	for n := 0; n < 3000; n++ {
		b := make([]byte, 16+rng.Intn(200))
		rng.Read(b)
		s := &byteSrc{b: b}
		e := s.boolean(2)
		for cand := 0; cand < fuzzStreams; cand++ {
			if k := compileStep(e, cand); k != nil && k.fold {
				folds++
			}
		}
		checkLowering(t, e, s)
	}
	if folds < 50 {
		t.Fatalf("only %d folded step bodies in 3000 trees: the generator does not exercise the distance sweep", folds)
	}

	// (1e8)² + 1² + 1² ≤ 1e16 holds left to right only: 1e16 + 1 rounds
	// back to 1e16 twice, 1e16 + (1 + 1) does not.
	order := Le(Add(Add(sq(Attr(0, 0), Attr(1, 0)), sq(Attr(0, 1), Attr(1, 1))), sq(Attr(0, 2), Attr(1, 2))), ConstOf(1e16))
	assign := []*stream.Tuple{tup(0, 1, 0, 1e8, 1, 1), tup(1, 1, 1, 0, 0, 0)}
	if !order.EvalBool(assign) || Le(Add(sq(Attr(0, 0), Attr(1, 0)), Add(sq(Attr(0, 1), Attr(1, 1)), sq(Attr(0, 2), Attr(1, 2)))), ConstOf(1e16)).EvalBool(assign) {
		t.Fatal("the summation-order probe does not discriminate")
	}
	for cand := 0; cand < 2; cand++ {
		in := []*stream.Tuple{assign[cand]}
		bound := slices.Clone(assign)
		bound[cand] = nil
		if k := compileStep(order, cand); !k.fold || len(k.sweep(bound, cand, in, nil)) != 1 {
			t.Fatalf("candidate stream %d: folded sweep (fold=%v) adds its squares in another order than EvalBool", cand, k.fold)
		}
	}
	if !CompileExpr(order).Eval(assign) {
		t.Fatal("Eval adds the squares in another order than EvalBool")
	}
}

// refCandidates is cstep.candidates before a fold moved into the grid scan:
// the grid's band members (or the base view), then one sweep per residual,
// the fused fold's program first among the compiled predicates. It returns
// a list of its own.
func refCandidates(cs *cstep, assign []*stream.Tuple) []*stream.Tuple {
	var in []*stream.Tuple
	if cs.grid != nil {
		r0, r1 := &cs.gridRef[0], &cs.gridRef[1]
		in = cs.grid.AppendBand(nil, assign[r0.stream].Attr(r0.attr), assign[r1.stream].Attr(r1.attr))
	} else {
		in = slices.Clone(cs.base(assign))
	}
	for _, r := range cs.resEq {
		v := assign[r.ref.stream].Attr(r.ref.attr)
		in = slices.DeleteFunc(in, func(c *stream.Tuple) bool { return c.Attr(r.ownAttr) != v })
	}
	for _, b := range cs.resBand {
		v := assign[b.ref.stream].Attr(b.ref.attr)
		in = slices.DeleteFunc(in, func(c *stream.Tuple) bool { return !b.in(c.Attr(b.ownAttr) - v) })
	}
	kern := cs.kern
	if cs.fold != nil {
		kern = append([]*Prog{cs.fold}, kern...)
	}
	for _, k := range kern {
		in = k.sweep(assign, cs.stream, in, in[:0])
	}
	return in
}

// unfuse hands every fold of c's steps back to the step's sweeps, so its
// probes run Grid.AppendBand, then Prog.sweep.
func unfuse(c *mclass) {
	for _, cp := range c.cplans {
		for i := range cp.steps {
			if cs := &cp.steps[i]; cs.fold != nil {
				cs.kern = append([]*Prog{cs.fold}, cs.kern...)
				cs.fold, cs.filters = nil, true
			}
		}
	}
}

// checkCandidates holds the step's candidate list under assign to
// refCandidates, and every deeper step's under each candidate.
func checkCandidates(t *testing.T, steps []cstep, lvl int, assign []*stream.Tuple) {
	if lvl == len(steps) {
		return
	}
	cs := &steps[lvl]
	got := slices.Clone(cs.candidates(assign))
	if want := refCandidates(cs, assign); !slices.Equal(got, want) {
		t.Fatalf("step %d (stream %d, fused %v) under %v: candidates %v, the unfused probe %v", lvl, cs.stream, cs.fold != nil, assign, got, want)
	}
	for _, c := range got {
		assign[cs.stream] = c
		checkCandidates(t, steps, lvl+1, assign)
	}
	assign[cs.stream] = nil
}

// foldVals are the key values of the fused-probe differential at scale s:
// from (0, 0), (3s, 4s) lies on the circle of radius 5s, and the neighbours
// a few ulps off 3s, 4s and 5s just inside or outside it; ±0, ±Inf and NaN
// besides. At s = 1e-161 the squares are subnormal and at s = 1e200 they
// overflow, so keys one ulp past a band edge square to the edge's own
// square: there only the box, not the circle, tells them apart.
func foldVals(s float64) []float64 {
	vs := []float64{0, math.Copysign(0, -1), s, 2.5 * s, 7 * s, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, v := range []float64{3, 4, 5, -3, -4, -5} {
		v *= s
		vs = append(vs, v)
		for n, lo, hi := 0, v, v; n < 3; n++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			vs = append(vs, lo, hi)
		}
	}
	return vs
}

// The fold kinds of randFoldCond. Only foldCentered may be decided in the
// grid scan; every other kind is swept.
const (
	foldCentered = iota // on grid keys, about the probe's point: fuses on a two-way join
	foldSID             // a centered fold plus the squared sID difference (attribute 0)
	foldConst           // a constant on one side of a difference
	foldShifted         // one difference about arrival.x + 1
	foldThird           // about a third stream's point, which no band of the candidate's names
	foldTwice           // one key squared twice
	foldKinds
)

// randFoldCond draws a band condition on attributes 1 and 2 (1-D or 2-D, of
// widths from {0, 2.5, 5, 8}·s) between streams 0 and 1 — and, with three
// streams, 1 and 2 (0 and 2 for foldThird) — under a residual fold of the
// given kind. A centered fold squares one or two distinct grid keys, each
// difference's operands in either order. The comparison is any of six, its
// constant on either side; the bound is fl(ε²) of a band's width ε or one
// ulp off it, 25s², 16s² or 0. Half the conditions add a second, plain
// residual.
func randFoldCond(rng *rand.Rand, m, kind int, s float64) (*Condition, bool) {
	twoD := rng.Intn(2) == 0
	eps := []float64{0, 2.5 * s, 5 * s, 8 * s}
	e := [2]float64{eps[rng.Intn(len(eps))], eps[1+rng.Intn(len(eps)-1)]}
	c := Cross(m).Band(0, 1, 1, 1, e[0])
	if twoD {
		c.Band(0, 2, 1, 2, e[1])
	}
	switch {
	case kind == foldThird:
		c.Band(0, 1, 2, 1, 5*s)
	case m > 2:
		c.Band(1, 1, 2, 1, 5*s)
	}
	keys := []int{1}
	if twoD {
		keys = [][]int{{1}, {2}, {1, 2}, {2, 1}}[rng.Intn(4)]
	}
	if kind == foldTwice {
		keys = append(keys, keys[0])
	}
	var sum *Expr
	for i, k := range keys {
		x, y := Attr(0, k), Attr(1, k)
		switch {
		case kind == foldThird:
			x, y = Attr(2, k), Attr(1, k)
		case i > 0:
		case kind == foldConst:
			vals := foldVals(s)
			x = ConstOf(vals[rng.Intn(len(vals))])
		case kind == foldShifted:
			x = Add(x, ConstOf(1))
		}
		if rng.Intn(2) == 0 {
			x, y = y, x
		}
		d := Sub(x, y)
		if sum == nil {
			sum = Mul(d, d)
		} else {
			sum = Add(sum, Mul(d, cloneExpr(d)))
		}
	}
	if kind == foldSID {
		d := Sub(Attr(1, 0), Attr(0, 0))
		sum = Add(sum, Mul(d, d))
	}
	sq := e[0] * e[0]
	if twoD && rng.Intn(2) == 0 {
		sq = e[1] * e[1]
	}
	r := ConstOf([]float64{sq, math.Nextafter(sq, 0), math.Nextafter(sq, math.Inf(1)), 25 * s * s, 16 * s * s, 0}[rng.Intn(6)])
	cmp := []func(x, y *Expr) *Expr{Lt, Le, Gt, Ge, Eq, Ne}[rng.Intn(6)]
	if rng.Intn(2) == 0 {
		c.WhereExpr(cmp(sum, r))
	} else {
		c.WhereExpr(cmp(r, sum))
	}
	if rng.Intn(2) == 0 {
		c.WhereExpr(Lt(Attr(0, 0), Add(Attr(1, 0), ConstOf(2))))
	}
	return c, twoD
}

// randFoldFeed builds a disordered feed over the keys vals, the sID
// (attribute 0) a small per-stream integer.
func randFoldFeed(rng *rand.Rand, m, n int, vals []float64) []*stream.Tuple {
	out := make([]*stream.Tuple, n)
	ts := stream.Time(100)
	for i := range out {
		ts += stream.Time(rng.Intn(3))
		t, src := ts, rng.Intn(m)
		if rng.Intn(6) == 0 {
			t -= stream.Time(rng.Intn(15))
		}
		out[i] = tup(src, t, uint64(i), float64(4*src+rng.Intn(4)), vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
	}
	return out
}

// TestFusedProbeMatchesUnfused: on random one- and two-dimensional band
// conditions under a residual fold of each kind (randFoldCond), over keys on
// and a few ulps off the circle and the band edges — at a unit scale, and
// at scales where the squares underflow or overflow — the probe with the
// fold decided in the grid scan returns the unfused probe's candidate list
// at every level of every probe (refCandidates), and the operator — and a
// Multi of two members in one residual class — delivers the unfused
// operator's result sequence, every TS the one stream.NewResult computes.
// A centered fold fuses on a two-way join; no other kind ever does.
func TestFusedProbeMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	fused := 0
	for run := 0; run < 288; run++ {
		m, kind := 2+run%2, run/2%foldKinds
		if kind == foldThird {
			m = 3
		}
		scale := []float64{1, 1, 1e-161, 1e200}[rng.Intn(4)]
		cond, twoD := randFoldCond(rng, m, kind, scale)
		seq := randFoldFeed(rng, m, 300, foldVals(scale))
		windows := make([]stream.Time, m)
		for i := range windows {
			windows[i] = 20
		}
		label := fmt.Sprintf("run %d (m=%d, kind %d, 2-D %v, scale %g): %s", run, m, kind, twoD, scale, cond.Generics[0].Expr)

		var want, got, gotMulti []string
		ref := New(cond, windows, WithEmit(func(r stream.Result) { want = append(want, resultSig(stream.NewResult(r.Tuples))) }))
		unfuse(&ref.class)
		op := New(cond, windows, WithEmit(func(r stream.Result) { got = append(got, resultSig(r)) }))
		mo := NewMulti(windows)
		sig := ResidualSig(cond, "")
		mo.Add(cond, sig, func(r stream.Result) { gotMulti = append(gotMulti, resultSig(r)) }, nil, nil)
		mo.Add(cond, sig, nil, nil, nil)

		for _, cp := range op.class.cplans {
			for i := range cp.steps {
				cs := &cp.steps[i]
				if cs.fold != nil {
					fused++
				}
				switch {
				case kind != foldCentered && cs.fold != nil:
					t.Fatalf("%s: a fold of kind %d fused", label, kind)
				case kind == foldCentered && m == 2 && cs.fold == nil:
					t.Fatalf("%s: a centered fold on grid keys did not fuse", label)
				}
			}
		}
		for _, e := range seq {
			if e.TS >= op.onT { // in order: expire as the probe will, then check it
				for _, w := range op.windows {
					w.Expire(e.TS - w.Size())
				}
				assign := make([]*stream.Tuple, m)
				assign[e.Src] = e
				checkCandidates(t, op.class.cplans[e.Src].steps, 0, assign)
			}
			ref.Process(e)
			op.Process(e)
			mo.Process(e)
		}
		if !slices.Equal(got, want) || !slices.Equal(gotMulti, want) {
			t.Fatalf("%s: the operator delivered %d results, the Multi %d, the unfused operator %d; first difference at %d",
				label, len(got), len(gotMulti), len(want), firstDiff(got, gotMulti, want))
		}
	}
	if fused < 100 {
		t.Fatalf("only %d fused steps over 288 conditions: the generator does not exercise the fused probe", fused)
	}
}

// firstDiff returns the first index at which a or b differs from want.
func firstDiff(a, b, want []string) int {
	for i := 0; ; i++ {
		if i >= len(want) || i >= len(a) || i >= len(b) || a[i] != want[i] || b[i] != want[i] {
			return i
		}
	}
}
