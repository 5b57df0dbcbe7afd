// The plan-tree executor: PlanTree executes an arbitrary binary deployment
// shape over the input streams — the shapes internal/plan's deployment
// planner emits, the left-deep spine of Sec. V (stage j = streams [0..j] ⋈
// raw stream j+1) among them. Both sides of a stage may be sub-plans (bushy
// trees), and any stage whose cross predicates carry an equi or band key
// may be *sharded*: its two windows are key-partitioned across N worker
// goroutines, with no broadcast route, which is how a star-shaped condition
// without a full key class still runs fully partitioned (each binary stage
// always has a usable key).
//
// A sharded stage runs on internal/shard's runtime, the one flat shards use
// (DESIGN.md §7): the driver classifies and routes, the workers run the
// stage's window pairs, and their outputs re-enter the tree in probe order
// every shardDepth probes and at every Quiesce and Finish.
package dist

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/syncer"
)

// Shape describes one node of a binary deployment shape: a leaf naming a
// raw input stream (Left == Right == nil), or an internal stage joining the
// two child sub-plans. Shards > 1 on an internal node key-partitions that
// stage's windows across Shards worker goroutines; it requires the stage's
// cross predicates to carry an equi or band key.
type Shape struct {
	Stream      int
	Left, Right *Shape
	Shards      int
}

// IsLeaf reports whether the node is a raw input stream.
func (s *Shape) IsLeaf() bool { return s.Left == nil && s.Right == nil }

// Streams returns the raw streams covered by the subtree, in ascending
// order.
func (s *Shape) Streams() []int {
	var out []int
	var walk func(*Shape)
	walk = func(n *Shape) {
		if n.IsLeaf() {
			out = append(out, n.Stream)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(s)
	return join.SortedStreams(out)
}

// Spine returns the left-deep shape over m streams — the Sec. V tree — with
// no stage sharding.
func Spine(m int) *Shape {
	node := &Shape{Stream: 0}
	for s := 1; s < m; s++ {
		node = &Shape{Left: node, Right: &Shape{Stream: s}}
	}
	return node
}

// validate checks that the shape covers every stream of [0, m) exactly once
// and that internal nodes have both children.
func (s *Shape) validate(m int) {
	seen := make([]bool, m)
	var walk func(*Shape)
	walk = func(n *Shape) {
		if n.IsLeaf() {
			if n.Stream < 0 || n.Stream >= m {
				panic(fmt.Sprintf("dist: shape leaf stream %d outside [0,%d)", n.Stream, m))
			}
			if seen[n.Stream] {
				panic(fmt.Sprintf("dist: shape covers stream %d twice", n.Stream))
			}
			seen[n.Stream] = true
			return
		}
		if n.Left == nil || n.Right == nil {
			panic("dist: shape stage with a single child")
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(s)
	for st, ok := range seen {
		if !ok {
			panic(fmt.Sprintf("dist: shape misses stream %d", st))
		}
	}
}

// pxEqui is one cross equi predicate of a plan stage, normalized so
// LeftStream lies on side 0.
type pxEqui struct {
	ls, la int
	rs, ra int
}

// pxBand is one cross band predicate |left − right| ≤ eps, normalized like
// pxEqui. On stages without an equi lookup the first band keys a sorted
// range index on both stage windows; every band — including the probed one
// — stays in the residual filter, so the widened range is a pure superset
// pre-filter and results agree bit-for-bit with a full-window scan.
type pxBand struct {
	ls, la int
	rs, ra int
	eps    float64
}

// pstage is one binary join stage of a PlanTree: its Synchronizer, the two
// windows (or, when sharded, the worker set partitioning them), and the
// cross predicates bound here.
type pstage struct {
	id   int
	tree *PlanTree

	parent     *pstage
	parentSide int

	sideStreams [2][]int
	inSide      [2][]bool
	// leaves are the raw streams entering this stage directly; a per-stage
	// K decision sizes exactly their K-slack buffers.
	leaves []int

	lookups []pxEqui
	bands   []pxBand
	checks  []int        // Condition.Generics claimed by this stage
	progs   []*join.Prog // compiled form per check; nil entries fall back to Eval
	keyed   bool         // probe key is lookups[0] (hash); else bands[0] (range) if banded
	banded  bool

	// free is the stage's chunk arena: dead events (expired from the
	// driver-thread windows or dropped out of scope) whose parts slices are
	// recycled into the next leaf arrival or combine output pushed into
	// this stage. Driver-thread only; sharded stages run without one
	// (their windows expire on worker goroutines).
	free []*event

	// sync is the stage's Synchronizer (Alg. 1, m = 2): one lane per side,
	// ordered by (ts, ord), releasing into process. ord stamps arrivals.
	sync *syncer.Sync[*event]
	ord  uint64

	onT    stream.Time
	win    [2]*pwindow // unsharded state (nil when sharded)
	assign []*stream.Tuple

	// An unsharded root stage combines every result into the one rootOut,
	// whose parts the sink borrows (see Partial): every combine at the root
	// binds all m streams, so each result overwrites the last.
	rootOut event

	sh       *stageShards // non-nil when the stage is sharded
	prodHook ProdHook
}

// PlanTree executes one deployment shape behind per-stream K-slack buffers
// (core.Pipeline owns them): feed each raw stream's released tuples to
// Input from one goroutine, Finish at end of input.
type PlanTree struct {
	cond    *join.Condition
	windows []stream.Time
	m       int
	stages  []*pstage // post-order; root last
	leaves  []*pleaf  // by raw stream index
	sink    func(Partial)

	finished bool

	// inject is the optional deterministic fault injector, checked by the
	// sharded stages on their worker goroutines (worker ids are
	// shard-local).
	inject    *fault.Injector
	hasShards bool
}

// pleaf is one raw input: the stage side it feeds.
type pleaf struct {
	stage *pstage
	side  int
	src   int
	w     stream.Time
}

// emit wraps one released raw tuple into an event and pushes it into the
// leaf's stage. The event comes from the stage arena when the stage is
// unsharded (a sharded stage's windows live on worker goroutines, which
// cannot return events to the driver-owned free list).
func (lf *pleaf) emit(e *stream.Tuple) {
	s := lf.stage
	var ev *event
	if s.sh == nil {
		ev = s.alloc()
	} else {
		ev = &event{parts: make([]*stream.Tuple, s.tree.m)}
	}
	ev.ts, ev.deadline, ev.delay = e.TS, e.TS+lf.w, e.Delay
	ev.parts[lf.src] = e
	s.push(ev, lf.side)
}

// NewPlanTree compiles cond into the executors of shape. sink (optional)
// receives every complete result.
func NewPlanTree(cond *join.Condition, windows []stream.Time, shape *Shape, sink func(Partial)) *PlanTree {
	if len(windows) != cond.M {
		panic("dist: window count must match condition arity")
	}
	if cond.M < 2 {
		panic("dist: need at least 2 streams")
	}
	shape.validate(cond.M)
	cond.Seal()
	t := &PlanTree{
		cond:    cond,
		windows: windows,
		m:       cond.M,
		leaves:  make([]*pleaf, cond.M),
		sink:    sink,
	}
	claimed := make([]bool, len(cond.Generics))
	t.build(shape, nil, 0, claimed)
	// Generics never claimed can only reference a single stream (any two
	// streams meet at some stage); claim them at the leaf's own stage.
	for gi, g := range cond.Generics {
		if claimed[gi] {
			continue
		}
		st := 0
		if len(g.Streams) > 0 {
			st = g.Streams[0]
		}
		lf := t.leaves[st]
		lf.stage.checks = append(lf.stage.checks, gi)
		claimed[gi] = true
	}
	for _, s := range t.stages {
		if s.sh != nil {
			t.hasShards = true
		}
		// Compile each claimed generic to bytecode; nil entries (opaque
		// closures, too-deep expressions) keep the Eval escape hatch.
		// Prog.Eval is concurrent-safe, so shard workers share the programs.
		for _, gi := range s.checks {
			s.progs = append(s.progs, join.CompileExpr(cond.Generics[gi].Expr))
		}
		if s.sh == nil {
			s.win[0].free = s.recycle
			s.win[1].free = s.recycle
		}
	}
	return t
}

// SetInjector arms the deterministic fault injector; call before the first
// input. A nil injector (the default) is a no-op on every check.
func (t *PlanTree) SetInjector(inj *fault.Injector) {
	t.inject = inj
	for _, s := range t.stages {
		if s.sh != nil {
			s.sh.pool.SetInjector(inj)
		}
	}
}

// build recursively compiles a shape node, returning its covered streams.
// Stages are appended post-order, so children precede parents and the root
// is last.
func (t *PlanTree) build(sh *Shape, parent *pstage, side int, claimed []bool) []int {
	if sh.IsLeaf() {
		st := sh.Stream
		t.leaves[st] = &pleaf{stage: parent, side: side, src: st, w: t.windows[st]}
		parent.leaves = append(parent.leaves, st)
		return []int{st}
	}
	s := &pstage{tree: t, parent: parent, parentSide: side,
		assign: make([]*stream.Tuple, t.m),
	}
	if parent == nil {
		s.rootOut.parts = make([]*stream.Tuple, t.m)
	}
	s.sync = syncer.NewSync(2, arrivalKey, s.process)
	left := t.build(sh.Left, s, sideLeft, claimed)
	right := t.build(sh.Right, s, sideRight, claimed)
	s.sideStreams = [2][]int{left, right}
	for sd := 0; sd < 2; sd++ {
		s.inSide[sd] = make([]bool, t.m)
		for _, st := range s.sideStreams[sd] {
			s.inSide[sd][st] = true
		}
	}
	link := t.cond.Cross(left, right)
	for _, e := range link.Equis {
		s.lookups = append(s.lookups, pxEqui{e.LeftStream, e.LeftAttr, e.RightStream, e.RightAttr})
	}
	for _, b := range link.Bands {
		s.bands = append(s.bands, pxBand{b.LeftStream, b.LeftAttr, b.RightStream, b.RightAttr, b.Eps})
	}
	s.keyed = len(s.lookups) > 0
	s.banded = !s.keyed && len(s.bands) > 0
	// Claim every still-unclaimed generic fully bound at this stage; the
	// post-order recursion guarantees deeper stages claimed theirs first.
	all := append(append([]int(nil), left...), right...)
	bound := make([]bool, t.m)
	for _, st := range all {
		bound[st] = true
	}
	for gi, g := range t.cond.Generics {
		if claimed[gi] {
			continue
		}
		ok := true
		for _, gs := range g.Streams {
			if !bound[gs] {
				ok = false
				break
			}
		}
		if ok {
			claimed[gi] = true
			s.checks = append(s.checks, gi)
		}
	}
	s.id = len(t.stages)
	if sh.Shards > 1 {
		if !s.keyed && !s.banded {
			panic(fmt.Sprintf("dist: shape shards stage %v⋈%v, but its cross predicates carry no equi or band key — an unkeyed stage cannot be partitioned without broadcast; leave it unsharded", left, right))
		}
		s.sh = newStageShards(s, sh.Shards)
	} else {
		s.win[0] = s.newWindow()
		s.win[1] = s.newWindow()
	}
	t.stages = append(t.stages, s)
	return append(left, right...)
}

// Input returns raw stream src's entry into the tree, the release target
// of the stream's K-slack buffer: each released tuple enters, wrapped in
// an event, the stage the stream feeds.
func (t *PlanTree) Input(src int) func(*stream.Tuple) { return t.leaves[src].emit }

// Sharded reports whether some stage runs on worker goroutines.
func (t *PlanTree) Sharded() bool { return t.hasShards }

// Scopes derives the feedback loop's decision scopes from the built shape,
// one per stage in post-order, the root last. Stage j's scope models the
// binary join of its two sub-plan inputs, and the shared instant
// requirement Γ′ composes along root-to-leaf paths: every raw leaf
// contributes one Γ′^(1/m) factor, charged to the stage whose K-slack
// buffer governs that leaf, so stage j's weight is its leaf count over m.
// On the spine this charges stage 0 two factors and every other stage one
// (DESIGN §8/§9). A stage with no leaf gets weight 0: the loop pins its K
// to 0, since no buffer would apply it — its input jitter is absorbed by
// the stage Synchronizer instead. leaves[j] lists the raw streams whose
// buffers stage j's K sizes, in the order it applies them.
func (t *PlanTree) Scopes() (scopes []feedback.Scope, weights []float64, leaves [][]int) {
	minWindow := func(streams []int) stream.Time {
		w := t.windows[streams[0]]
		for _, st := range streams[1:] {
			w = min(w, t.windows[st])
		}
		return w
	}
	for _, s := range t.stages {
		scopes = append(scopes, feedback.Scope{
			Groups:  [][]int{s.sideStreams[0], s.sideStreams[1]},
			Windows: []stream.Time{minWindow(s.sideStreams[0]), minWindow(s.sideStreams[1])},
		})
		weights = append(weights, float64(len(s.leaves))/float64(t.m))
		leaves = append(leaves, s.leaves)
	}
	return scopes, weights, leaves
}

// Watermark returns the root stage's output progress onT.
func (t *PlanTree) Watermark() stream.Time {
	return t.stages[len(t.stages)-1].onT
}

// SetProdHook installs the per-stage productivity hook; call before the
// first input. Stage indexes are post-order ids.
func (t *PlanTree) SetProdHook(f ProdHook) {
	for _, s := range t.stages {
		s.prodHook = f
	}
}

// Quiesce releases every sharded stage bottom-up: all routed messages are
// processed and the probes' outputs released downstream in probe order.
// Afterwards the worker windows are stable and readable from the driver
// thread, and the tree's state is the deterministic function of the pushed
// input that an adaptation decision or a checkpoint must see. A no-op
// without sharded stages.
func (t *PlanTree) Quiesce() {
	for _, s := range t.stages {
		if s.sh != nil {
			s.sh.release(s)
		}
	}
}

// Finish flushes every stage bottom-up, once the K-slack buffers in front
// of the tree are flushed; afterwards all results have been emitted and
// the shard workers have exited. Finishing twice panics.
func (t *PlanTree) Finish() {
	if t.finished {
		panic("dist: Finish on a finished PlanTree — the run is already flushed and cannot be restarted; build a new PlanTree")
	}
	t.finished = true
	for _, s := range t.stages {
		s.sync.Close(sideLeft)
		s.sync.Close(sideRight)
		if s.sh != nil {
			s.sh.release(s)
			s.sh.pool.Close()
		}
	}
}

// Operators returns the number of binary join stages.
func (t *PlanTree) Operators() int { return len(t.stages) }

// Stages exposes the post-order stage count per shard degree, for
// diagnostics: Stages()[j] is stage j's worker count (1 = unsharded).
func (t *PlanTree) Stages() []int {
	out := make([]int, len(t.stages))
	for i, s := range t.stages {
		out[i] = 1
		if s.sh != nil {
			out[i] = len(s.sh.workers)
		}
	}
	return out
}

// ---- stage machinery ----

// sideOf classifies an event by the membership of its first bound stream;
// the two sides are disjoint, so any constituent decides.
func (s *pstage) sideOf(ev *event) int {
	for st, t := range ev.parts {
		if t != nil {
			if s.inSide[sideLeft][st] {
				return sideLeft
			}
			return sideRight
		}
	}
	panic("dist: event with no bound stream")
}

// stampKey stamps the event with this stage's probe key for its side.
func (s *pstage) stampKey(ev *event, side int) {
	switch {
	case s.keyed:
		l0 := s.lookups[0]
		if side == sideLeft {
			ev.key = ev.parts[l0.ls].Attr(l0.la)
		} else {
			ev.key = ev.parts[l0.rs].Attr(l0.ra)
		}
	case s.banded:
		b0 := s.bands[0]
		if side == sideLeft {
			ev.key = ev.parts[b0.ls].Attr(b0.la)
		} else {
			ev.key = ev.parts[b0.rs].Attr(b0.ra)
		}
	}
}

// push is the stage's input: the per-stage Synchronizer (Alg. 1 with m=2).
func (s *pstage) push(ev *event, side int) {
	s.stampKey(ev, side)
	ev.ord = s.ord
	s.ord++
	s.sync.Push(ev, side)
}

// alloc hands out a recycled event (parts already all-nil) or a fresh one.
// Driver-thread only.
func (s *pstage) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{parts: make([]*stream.Tuple, s.tree.m)}
}

// recycle returns a dead event to the stage arena. Only events that can no
// longer be referenced enter here: expired window entries and out-of-scope
// drops.
func (s *pstage) recycle(ev *event) {
	clear(ev.parts)
	ev.key = 0
	s.free = append(s.free, ev)
}

// newOut returns the destination event for a driver-thread combine: from
// the parent stage's arena when the output will live in the parent's
// driver-thread windows, the stage's reused rootOut at the root, a plain
// allocation for a sharded parent (its windows expire on worker
// goroutines).
func (s *pstage) newOut() *event {
	p := s.parent
	if p == nil {
		return &s.rootOut
	}
	if p.sh == nil {
		return p.alloc()
	}
	return &event{parts: make([]*stream.Tuple, s.tree.m)}
}

// process is the binary Alg. 2 step on one synchronized event.
func (s *pstage) process(ev *event, side int) {
	if s.sh != nil {
		s.sh.process(s, ev, side)
		return
	}
	if ev.ts >= s.onT {
		s.onT = ev.ts
		opp := s.win[1-side]
		opp.expire(ev.ts)
		nCross := int64(opp.len())
		nOn := s.probe(ev, side, opp)
		s.win[side].insert(ev)
		if s.prodHook != nil {
			s.prodHook(s.id, ev.ts, ev.delay, nCross, nOn, true)
		}
		return
	}
	if s.prodHook != nil {
		s.prodHook(s.id, ev.ts, ev.delay, 0, 0, false)
	}
	if ev.deadline >= s.onT {
		s.win[side].insert(ev)
	} else {
		s.recycle(ev)
	}
}

// probe joins ev against the opposing window opp, emitting derived results
// downstream; the worker path runs its own copy of this loop so outputs can
// be collected for ordered release instead.
func (s *pstage) probe(ev *event, side int, opp *pwindow) int64 {
	var n int64
	for _, cand := range opp.candidates(ev.key) {
		if cand.deadline < ev.ts {
			continue
		}
		if s.matchesInto(ev, cand, side, s.assign) {
			s.output(s.combine(ev, cand, side, s.newOut()))
			n++
		}
	}
	return n
}

// newWindow builds one input window of the stage, indexed by its key: the
// first equi lookup, or on a band-only stage the first band.
func (s *pstage) newWindow() *pwindow {
	if s.banded {
		return newPwindow(false, true, s.bands[0].eps)
	}
	return newPwindow(s.keyed, false, 0)
}

// matchesInto checks the residual cross predicates on one candidate pair.
// scratch is the caller's m-length assignment buffer (the stage's own on
// the driver thread, a worker-local one on the sharded path), consulted
// only when generic checks need a full assignment.
func (s *pstage) matchesInto(ev, cand *event, side int, scratch []*stream.Tuple) bool {
	a, b := ev, cand
	if side == sideRight {
		a, b = cand, ev
	}
	// a holds side-0 constituents, b side-1.
	skip := 0
	if s.keyed {
		skip = 1
	}
	for _, l := range s.lookups[skip:] {
		if a.parts[l.ls].Attr(l.la) != b.parts[l.rs].Attr(l.ra) {
			return false
		}
	}
	for _, p := range s.bands {
		d := a.parts[p.ls].Attr(p.la) - b.parts[p.rs].Attr(p.ra)
		// Negated form: NaN (all comparisons false) never band-matches.
		if !(d >= -p.eps && d <= p.eps) {
			return false
		}
	}
	if len(s.checks) == 0 {
		return true
	}
	for i := range scratch {
		scratch[i] = nil
	}
	for st, t := range a.parts {
		if t != nil {
			scratch[st] = t
		}
	}
	for st, t := range b.parts {
		if t != nil {
			scratch[st] = t
		}
	}
	for i, gi := range s.checks {
		if p := s.progs[i]; p != nil {
			if !p.Eval(scratch) {
				return false
			}
		} else if !s.tree.cond.Generics[gi].Eval(scratch) {
			return false
		}
	}
	return true
}

// combine materializes the joined partial of ev and cand into out, whose
// parts slice must be all-nil (a fresh allocation or an arena handout).
func (s *pstage) combine(ev, cand *event, side int, out *event) *event {
	for st, t := range ev.parts {
		if t != nil {
			out.parts[st] = t
		}
	}
	for st, t := range cand.parts {
		if t != nil {
			out.parts[st] = t
		}
	}
	out.ts = ev.ts
	if cand.ts > out.ts {
		out.ts = cand.ts
	}
	out.deadline = ev.deadline
	if cand.deadline < out.deadline {
		out.deadline = cand.deadline
	}
	out.delay = ev.delay
	return out
}

// output hands a derived partial downstream, or to the sink at the root.
func (s *pstage) output(out *event) {
	if s.parent != nil {
		s.parent.push(out, s.parentSide)
		return
	}
	if s.tree.sink != nil {
		s.tree.sink(Partial{TS: out.ts, Delay: out.delay, Parts: out.parts})
	}
}

// ---- sharded stage ----

// shardDepth is how many probes a sharded stage routes between releases:
// it merges its workers' outputs every shardDepth probes and at every
// Quiesce and Finish, so release points are a function of the input
// sequence alone, never of worker scheduling.
const shardDepth = 128

// shardBatch is a sharded stage's messages per worker hand-off. It is
// below shardDepth so workers start on a release batch while the driver
// is still routing it.
const shardBatch = 16

// probeMeta is the driver-side accounting of one routed probe.
type probeMeta struct {
	ts, delay stream.Time
	nCross    int64
}

// stageShards partitions one stage's windows across workers of the shared
// runtime (internal/shard): its partition rule routes, its pool runs the
// window pairs and merges their outputs in probe order. What stays here is
// the classification — in-order, late or out of scope against onT and the
// partials' deadlines — and the rings that replay global window membership
// for n×(e).
type stageShards struct {
	rule    shard.Rule
	pool    *shard.Pool[*event, *event]
	workers []*stageWorker
	rings   [2]shard.Ring // global deadline multisets (router view)
	probes  []probeMeta   // this release's probes, by message Idx
	visit   func(i int, nOn int64)
}

// stageWorker is one worker's share of a sharded stage: its window pair.
type stageWorker struct {
	s       *pstage
	win     [2]*pwindow
	scratch []*stream.Tuple
	out     *shard.Out[*event]
}

func newStageShards(s *pstage, n int) *stageShards {
	sh := &stageShards{rule: shard.NewRule(n, 0)}
	if s.banded {
		sh.rule = shard.NewRule(n, s.bands[0].eps)
	}
	sh.pool = shard.NewPool(n, shardBatch, s.tree.inject, func(w int, out *shard.Out[*event]) shard.Body[*event] {
		sw := &stageWorker{s: s, win: [2]*pwindow{s.newWindow(), s.newWindow()}, scratch: make([]*stream.Tuple, s.tree.m), out: out}
		sh.workers = append(sh.workers, sw)
		return sw
	})
	sh.visit = func(i int, nOn int64) {
		if m := sh.probes[i]; s.prodHook != nil {
			s.prodHook(s.id, m.ts, m.delay, m.nCross, nOn, true)
		}
	}
	return sh
}

// process is the sharded counterpart of pstage.process: classify on the
// driver thread, account globally, route.
func (sh *stageShards) process(s *pstage, ev *event, side int) {
	if ev.ts >= s.onT {
		s.onT = ev.ts
		opp := &sh.rings[1-side]
		opp.Expire(ev.ts)
		sh.probes = append(sh.probes, probeMeta{ts: ev.ts, delay: ev.delay, nCross: int64(opp.Len())})
		sh.rings[side].Insert(ev.deadline)
		sh.route(shard.Msg[*event]{Item: ev, WM: s.onT, Idx: len(sh.probes) - 1, Side: uint8(side), Kind: shard.Probe})
		if len(sh.probes) == shardDepth {
			sh.release(s)
		}
		return
	}
	if s.prodHook != nil {
		s.prodHook(s.id, ev.ts, ev.delay, 0, 0, false)
	}
	if ev.deadline >= s.onT {
		sh.rings[side].Insert(ev.deadline)
		sh.route(shard.Msg[*event]{Item: ev, WM: s.onT, Side: uint8(side), Kind: shard.Insert})
	}
}

// route sends m to the owner of its key and insert-only copies to the
// band replicas.
func (sh *stageShards) route(m shard.Msg[*event]) {
	owner, replicas := sh.rule.Route(m.Item.key)
	sh.pool.Send(owner, m)
	m.Kind, m.Idx = shard.Insert, 0
	for _, w := range replicas {
		sh.pool.Send(w, m)
	}
}

// release merges every routed probe's outputs downstream in probe order;
// a worker failure panics before any of them is emitted.
func (sh *stageShards) release(s *pstage) {
	sh.pool.Merge(len(sh.probes), sh.visit, s.output)
	sh.probes = sh.probes[:0]
}

// Probe is the binary Alg. 2 step on a worker: expire the opposing window,
// probe it, insert.
func (w *stageWorker) Probe(m *shard.Msg[*event]) int64 {
	s, ev, side := w.s, m.Item, int(m.Side)
	opp := w.win[1-side]
	opp.expire(ev.ts)
	var n int64
	for _, cand := range opp.candidates(ev.key) {
		if cand.deadline >= ev.ts && s.matchesInto(ev, cand, side, w.scratch) {
			w.out.Emit(s.combine(ev, cand, side, &event{parts: make([]*stream.Tuple, s.tree.m)}))
			n++
		}
	}
	w.win[side].insert(ev)
	return n
}

// Insert is the replica and out-of-order path: expire, insert if in scope.
func (w *stageWorker) Insert(m *shard.Msg[*event]) {
	win := w.win[m.Side]
	win.expire(m.WM)
	if m.Item.deadline >= m.WM {
		win.insert(m.Item)
	}
}
