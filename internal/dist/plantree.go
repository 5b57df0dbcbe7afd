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
// # Determinism
//
// The driver is push-based and single-threaded. A sharded stage keeps the
// ordering decisions on the driver thread: its Synchronizer, watermark onT
// and the in-order/out-of-order classification run before routing, and a
// router-side pair of deadline multisets replays global window membership
// for the exact stage-local cross size n×(e) (the same trick
// internal/shard's router uses). Every probe is processed by exactly
// one worker — the owner of its key (band replicas are insert-only) — so
// per-probe outputs are well-defined, and they re-enter the tree in probe
// sequence order through a bounded-depth reorder pipeline: probe
// seq−shardDepth is released (blocking on its worker if necessary) when
// probe seq is routed. Release points are therefore a pure function of the
// input sequence, never of worker scheduling — runs are reproducible
// bit-for-bit, including the adaptation trajectory. Downstream stages see
// their inputs in deterministic order, and the per-stage Synchronizers
// absorb the bounded release lag: each input side still arrives in
// nondecreasing timestamp order, so the merge — and with buffers covering
// the disorder, the result multiset — is bit-for-bit that of the unsharded
// run.
package dist

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/pq"
	"repro/internal/stream"
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
	// leafBufs are the K-slack buffers of the raw streams entering this
	// stage directly; a per-stage K decision sizes exactly these.
	leafBufs []*kslack.Buffer

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

	// Synchronizer state (Alg. 1, m = 2). The buffer is one FIFO lane per
	// side in front of a late heap: a side's input is nondecreasing in ts
	// except for its K-slack's late releases, and ord only grows, so an
	// event at or past its lane's newest ts extends the lane in (ts, ord)
	// order and only the rest are heap-sorted. counts[side] covers both.
	tsync  stream.Time
	lane   [2]pq.Run[*event]
	late   pq.Heap[*event]
	counts [2]int
	open   [2]bool
	ord    uint64

	onT    stream.Time
	win    [2]*pwindow // unsharded state (nil when sharded)
	assign []*stream.Tuple

	// An unsharded root stage combines every result into the one rootOut,
	// which never outlives output; only its parts, carved from slab, reach
	// the sink (see Partial).
	rootOut event
	slab    join.TupleSlab

	sh       *pshard // non-nil when the stage is sharded
	prodHook prodHookFunc
}

// PlanTree executes one deployment shape: Push raw arrivals from one
// goroutine, Finish at end of input.
type PlanTree struct {
	cond    *join.Condition
	windows []stream.Time
	m       int
	stages  []*pstage // post-order; root last
	leaves  []*pleaf  // by raw stream index
	sink    func(Partial)

	results  int64
	finished bool

	// inject is the optional deterministic fault injector. Sharded stages
	// check it on their worker goroutines (worker ids are shard-local); a
	// tree without sharded stages checks worker 0 on the driver thread at
	// every Push, between tuples — a checkpoint-consistent crash point.
	inject    *fault.Injector
	hasShards bool
}

// pleaf is one raw input: its K-slack buffer and the stage side it feeds.
type pleaf struct {
	ks    *kslack.Buffer
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

// NewPlanTree compiles cond into the executors of shape with the common
// buffer size k on every raw input. sink (optional) receives every complete
// result.
func NewPlanTree(cond *join.Condition, windows []stream.Time, shape *Shape, k stream.Time, sink func(Partial)) *PlanTree {
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
	t.build(shape, nil, 0, k, claimed)
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
// Push. A nil injector (the default) is a no-op on every check.
func (t *PlanTree) SetInjector(inj *fault.Injector) { t.inject = inj }

// build recursively compiles a shape node, returning its covered streams.
// Stages are appended post-order, so children precede parents and the root
// is last.
func (t *PlanTree) build(sh *Shape, parent *pstage, side int, k stream.Time, claimed []bool) []int {
	if sh.IsLeaf() {
		st := sh.Stream
		lf := &pleaf{stage: parent, side: side, src: st, w: t.windows[st]}
		lf.ks = kslack.New(k, lf.emit)
		parent.leafBufs = append(parent.leafBufs, lf.ks)
		t.leaves[st] = lf
		return []int{st}
	}
	s := &pstage{tree: t, parent: parent, parentSide: side,
		open:   [2]bool{true, true},
		assign: make([]*stream.Tuple, t.m),
	}
	left := t.build(sh.Left, s, sideLeft, k, claimed)
	right := t.build(sh.Right, s, sideRight, k, claimed)
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
		s.sh = newPshard(s, sh.Shards)
	} else {
		s.win[0] = newPwindow(s.keyed, s.banded)
		s.win[1] = newPwindow(s.keyed, s.banded)
	}
	t.stages = append(t.stages, s)
	return append(left, right...)
}

// Push feeds one raw arrival. Pushing into a finished tree panics.
func (t *PlanTree) Push(e *stream.Tuple) {
	if t.finished {
		panic("dist: Push on a finished PlanTree — Finish flushed the stage buffers and a run cannot be restarted; build a new PlanTree")
	}
	if !t.hasShards {
		t.inject.MaybeDelay(0)
		t.inject.MaybePanic(0)
	}
	t.leaves[e.Src].ks.Push(e)
}

// SetStageK applies a per-stage buffer-size decision: ks[j] (indexed by the
// post-order stage id) sizes the K-slack buffers of the raw streams
// entering stage j directly. Stages with no raw input consume no entry.
func (t *PlanTree) SetStageK(ks []stream.Time) {
	for _, s := range t.stages {
		for _, b := range s.leafBufs {
			b.SetK(ks[s.id])
		}
	}
}

// Watermark returns the root stage's output progress onT.
func (t *PlanTree) Watermark() stream.Time {
	return t.stages[len(t.stages)-1].onT
}

// setProdHook installs the per-stage productivity hook; call before the
// first Push. Stage indexes are post-order ids.
func (t *PlanTree) setProdHook(f prodHookFunc) {
	for _, s := range t.stages {
		s.prodHook = f
	}
}

// SyncBarrier quiesces every sharded stage bottom-up: all routed probes are
// processed and their outputs released downstream in sequence order.
// Afterwards the tree's state is the deterministic function of the pushed
// input that an adaptation decision must see. A no-op without sharded
// stages.
func (t *PlanTree) SyncBarrier() {
	for _, s := range t.stages {
		if s.sh != nil {
			s.sh.quiesce()
		}
	}
}

// Quiesce is the stronger checkpoint barrier: beyond SyncBarrier's ordered
// release of all routed probes, it drains the trailing insert-only messages
// out of every worker queue, bottom-up. Afterwards no sharded stage has any
// message in flight, so the worker windows are stable and readable from the
// driver thread. A no-op without sharded stages.
func (t *PlanTree) Quiesce() {
	for _, s := range t.stages {
		if s.sh != nil {
			s.sh.quiesce()
			s.sh.insertBarrier()
		}
	}
}

// Finish flushes every buffer bottom-up; afterwards all results have been
// emitted and the shard workers have exited. Finishing twice panics, as
// does pushing afterwards.
func (t *PlanTree) Finish() {
	if t.finished {
		panic("dist: Finish on a finished PlanTree — the run is already flushed and cannot be restarted; build a new PlanTree")
	}
	t.finished = true
	for _, lf := range t.leaves {
		lf.ks.Flush()
	}
	for _, s := range t.stages {
		s.closeSide(sideLeft)
		s.closeSide(sideRight)
		if s.sh != nil {
			s.sh.quiesce()
			s.sh.stop()
		}
	}
}

// Results returns the number of complete results produced so far.
func (t *PlanTree) Results() int64 { return t.results }

// BufferedTuples returns the total number of tuples currently held in the
// leaf K-slack buffers — the bounded-ingest occupancy measure.
func (t *PlanTree) BufferedTuples() int {
	n := 0
	for _, lf := range t.leaves {
		n += lf.ks.Len()
	}
	return n
}

// ShedWorst evicts the buffered tuple with the largest delay. The static
// tree runs no feedback loop, so no productivity score exists to rank by
// and no recall accounting absorbs the drop; the largest-delay tuple is the
// one most likely already beyond its usefulness. Ties break toward the
// smallest (TS, Seq), then the first buffer — a function of the buffered
// tuples alone, so shed decisions replay identically after a restore.
// Returns false when nothing is buffered.
func (t *PlanTree) ShedWorst() bool {
	var from *kslack.Buffer
	var worst *stream.Tuple
	for _, lf := range t.leaves {
		for e := range lf.ks.All() {
			if worst == nil || kslack.ShedBefore(e, worst) {
				from, worst = lf.ks, e
			}
		}
	}
	if worst == nil {
		return false
	}
	from.Evict(worst)
	return true
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
			out[i] = s.sh.n
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
	if ev.ts > s.tsync {
		s.hold(ev, side)
		s.drainSync()
		return
	}
	s.process(ev, side)
}

// hold buffers ev until the Synchronizer releases it. Among its side's
// events at the same ts, ev must carry the largest ord: push stamps a
// growing one, Restore holds in (ts, ord) order.
func (s *pstage) hold(ev *event, side int) {
	if l := &s.lane[side]; l.Len() == 0 || ev.ts >= l.Back().ts {
		l.Push(ev)
	} else {
		s.late.Push(int64(ev.ts), ev.ord, ev)
	}
	s.counts[side]++
}

// syncBuffered returns every event the Synchronizer holds, in no particular
// order.
func (s *pstage) syncBuffered() []*event {
	evs := append([]*event(nil), s.lane[0].Live()...)
	return s.late.AppendValues(append(evs, s.lane[1].Live()...))
}

// syncFront returns the buffered (ts, ord) minimum — the smallest of the two
// lane fronts and the late heap's root — and where it sits: the lane's side,
// or -1 for the late heap. nil when nothing is buffered.
func (s *pstage) syncFront() (ev *event, at int) {
	at = -1
	if s.late.Len() > 0 {
		ev = s.late.Peek().Val
	}
	for side := range s.lane {
		if l := &s.lane[side]; l.Len() > 0 && (ev == nil || eventLess(l.Front(), ev)) {
			ev, at = l.Front(), side
		}
	}
	return ev, at
}

// drainSync releases, in (ts, ord) order, every buffered event the
// Synchronizer can: while no open side is empty, everything at the smallest
// buffered timestamp. Nothing buffered is at tsync on entry (push processes
// such an event directly), so an unready Synchronizer releases nothing and
// the common push — the other side still empty — stops at two compares. A
// lane pop knows its side; only a late-heap pop has to look it up.
func (s *pstage) drainSync() {
	if !s.syncReady() {
		return
	}
	for {
		ev, at := s.syncFront()
		if ev == nil {
			return
		}
		if ev.ts != s.tsync {
			if !s.syncReady() {
				return
			}
			s.tsync = ev.ts
		}
		side := at
		if at < 0 {
			s.late.Pop()
			side = s.sideOf(ev)
		} else {
			s.lane[at].Pop()
		}
		s.counts[side]--
		s.process(ev, side)
	}
}

func (s *pstage) syncReady() bool {
	for i := 0; i < 2; i++ {
		if s.open[i] && s.counts[i] == 0 {
			return false
		}
	}
	return true
}

func (s *pstage) closeSide(side int) {
	if !s.open[side] {
		return
	}
	s.open[side] = false
	s.drainSync()
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
// driver-thread windows, the stage's reused rootOut with freshly carved
// parts at the root, a plain allocation for a sharded parent (its windows
// expire on worker goroutines).
func (s *pstage) newOut() *event {
	p := s.parent
	if p == nil {
		s.rootOut.parts = s.slab.Carve(s.tree.m)
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
		s.sh.process(ev, side)
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
	for _, cand := range s.stageCandidates(opp, ev.key) {
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

// stageCandidates selects the candidate set for a probe key: the hash
// bucket on keyed stages, a widened range view on band-only stages, every
// live entry otherwise.
func (s *pstage) stageCandidates(w *pwindow, key float64) []*event {
	if w.srt != nil {
		lo, hi, ok := join.ProbeRange(key, s.bands[0].eps)
		if !ok {
			return nil
		}
		return w.srt.Range(lo, hi)
	}
	return w.candidates(key)
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
	s.tree.results++
	if s.tree.sink != nil {
		s.tree.sink(Partial{TS: out.ts, Delay: out.delay, Parts: out.parts})
	}
}

// ---- sharded stage ----

const (
	pmsgProbe = iota
	pmsgInsert
	pmsgBarrier
)

// shardDepth bounds how many probes may be in flight per sharded stage:
// probe seq−shardDepth is force-released (blocking on its worker if
// necessary) when probe seq is routed. The bound is what makes sharded
// stages deterministic — every release point is a function of the input
// sequence, never of worker scheduling.
const shardDepth = 128

// pmsg is one unit of worker input.
type pmsg struct {
	ev   *event
	wm   stream.Time // stage onT at routing time
	seq  uint64      // probe sequence (pmsgProbe only)
	side uint8
	kind uint8
}

// probeMeta is the router-side accounting of one in-flight probe.
type probeMeta struct {
	ts, delay stream.Time
	nCross    int64
}

// pshard partitions one stage's windows across n workers by the stage's
// cross key: hash cells for an equi key, ±eps-replicated range cells for a
// band key. Ordering stays on the driver thread — see the package-level
// determinism note.
type pshard struct {
	stage *pstage
	n     int
	cell  float64 // band mode: range-cell width (4·eps keeps replicas ≤ 2 cells)

	workers []*pworker
	rings   [2]pq.Heap[struct{}] // global deadline multisets, keys only (router view)

	seq     uint64
	nextSeq uint64
	meta    map[uint64]probeMeta

	mu    sync.Mutex
	cond  *sync.Cond
	ready map[uint64][]*event // completed, unreleased probe outputs

	wg sync.WaitGroup // insertBarrier rendezvous

	// First worker failure, recorded under mu. A probe failure is surfaced
	// when release reaches its sequence number — the exact chunk boundary
	// the emit gate of a supervised replay relies on; an insert failure is
	// surfaced before the next chunk is released.
	failed        bool
	failImmediate bool
	failSeq       uint64
	failErr       error

	stopped bool
}

// pworker is one shard of a stage: its own window pair and scratch buffers,
// fed FIFO through a channel.
type pworker struct {
	sh      *pshard
	id      int
	ch      chan pmsg
	win     [2]*pwindow
	scratch []*stream.Tuple
	done    chan struct{}
	failed  bool // drain mode: a panic was contained, inputs are discarded
}

func newPshard(s *pstage, n int) *pshard {
	sh := &pshard{
		stage: s,
		n:     n,
		meta:  make(map[uint64]probeMeta),
		ready: make(map[uint64][]*event),
	}
	sh.cond = sync.NewCond(&sh.mu)
	if s.banded {
		sh.cell = 4 * s.bands[0].eps
	}
	sh.workers = make([]*pworker, n)
	for i := range sh.workers {
		w := &pworker{
			sh:      sh,
			id:      i,
			ch:      make(chan pmsg, 256),
			win:     [2]*pwindow{newPwindow(s.keyed, s.banded), newPwindow(s.keyed, s.banded)},
			scratch: make([]*stream.Tuple, s.tree.m),
			done:    make(chan struct{}),
		}
		sh.workers[i] = w
		go w.run()
	}
	return sh
}

// process is the sharded counterpart of pstage.process: classify on the
// driver thread, account globally, route.
func (sh *pshard) process(ev *event, side int) {
	s := sh.stage
	if ev.ts >= s.onT {
		s.onT = ev.ts
		opp := &sh.rings[1-side]
		for opp.Len() > 0 && stream.Time(opp.Peek().Key) < ev.ts {
			opp.Pop()
		}
		nCross := int64(opp.Len())
		sh.rings[side].Push(int64(ev.deadline), 0, struct{}{})
		seq := sh.seq
		sh.seq++
		sh.meta[seq] = probeMeta{ts: ev.ts, delay: ev.delay, nCross: nCross}
		owner := sh.route(ev, side, s.onT, false)
		sh.workers[owner].ch <- pmsg{ev: ev, wm: s.onT, seq: seq, side: uint8(side), kind: pmsgProbe}
		if seq >= shardDepth {
			sh.release(seq - shardDepth)
		}
		return
	}
	if s.prodHook != nil {
		s.prodHook(s.id, ev.ts, ev.delay, 0, 0, false)
	}
	if ev.deadline >= s.onT {
		sh.rings[side].Push(int64(ev.deadline), 0, struct{}{})
		owner := sh.route(ev, side, s.onT, true)
		sh.workers[owner].ch <- pmsg{ev: ev, wm: s.onT, side: uint8(side), kind: pmsgInsert}
	}
}

// route returns the owner worker of ev's key and — in band mode — sends the
// insert-only replicas covering [key−eps, key+eps] so any band partner's
// owner holds a copy. Replicas are sent before the caller sends the owner
// message, preserving per-worker FIFO between an insert and any later probe
// that could match it.
func (sh *pshard) route(ev *event, side int, wm stream.Time, insertOnly bool) int {
	if sh.stage.keyed {
		bits, ok := index.KeyBits(ev.key)
		if !ok {
			bits = 0 // NaN can never equi-match; any worker will do
		}
		return int(index.Mix64(bits) % uint64(sh.n))
	}
	eps := sh.stage.bands[0].eps
	owner := sh.cellWorker(sh.bandCell(ev.key))
	lo, hi := sh.bandCell(ev.key-eps), sh.bandCell(ev.key+eps)
	for c := lo; c <= hi; c++ {
		if w := sh.cellWorker(c); w != owner {
			sh.workers[w].ch <- pmsg{ev: ev, wm: wm, side: uint8(side), kind: pmsgInsert}
		}
	}
	return owner
}

// bandCell quantizes a band key to its range cell with the same saturating
// quantizer the sharded operator's router uses (index.RangeCell).
func (sh *pshard) bandCell(key float64) int64 { return index.RangeCell(key, sh.cell) }

func (sh *pshard) cellWorker(cell int64) int { return index.CellOwner(cell, sh.n) }

// release hands the outputs of every probe with sequence ≤ upTo
// downstream, in sequence order, blocking until the owning workers have
// completed them. The stage's productivity hook fires with the router-side
// accounting, and the outputs re-enter the tree exactly as the unsharded
// stage would have emitted them.
func (sh *pshard) release(upTo uint64) {
	s := sh.stage
	for sh.nextSeq <= upTo {
		sh.mu.Lock()
		var outs []*event
		for {
			// A contained worker panic surfaces here, on the driver thread,
			// before the failed probe's chunk (or, for an insert failure,
			// the next chunk) is released: everything already emitted is a
			// prefix of complete per-probe chunks, which is what keeps a
			// checkpoint+replay's emit gate multiset-exact (DESIGN.md §10).
			if sh.failed && (sh.failImmediate || sh.failSeq <= sh.nextSeq) {
				err := sh.failErr
				sh.mu.Unlock()
				panic(err)
			}
			var ok bool
			if outs, ok = sh.ready[sh.nextSeq]; ok {
				break
			}
			sh.cond.Wait()
		}
		delete(sh.ready, sh.nextSeq)
		sh.mu.Unlock()
		seq := sh.nextSeq
		sh.nextSeq++
		m := sh.meta[seq]
		delete(sh.meta, seq)
		if s.prodHook != nil {
			s.prodHook(s.id, m.ts, m.delay, m.nCross, int64(len(outs)), true)
		}
		for _, out := range outs {
			s.output(out)
		}
	}
}

// quiesce releases every routed probe. Trailing insert-only messages may
// still sit in worker queues; they cannot affect any released output (a
// probe that could match them would have been routed behind them FIFO) and
// are drained at the latest by stop.
func (sh *pshard) quiesce() {
	if sh.seq > 0 {
		sh.release(sh.seq - 1)
	}
}

// insertBarrier waits until every worker has drained its queue — including
// the trailing insert-only messages quiesce leaves behind. After quiesce +
// insertBarrier the worker windows are stable and (via the WaitGroup's
// happens-before edge) readable from the driver thread: the precondition
// for capturing a checkpoint of a sharded stage.
func (sh *pshard) insertBarrier() {
	sh.wg.Add(sh.n)
	for _, w := range sh.workers {
		w.ch <- pmsg{kind: pmsgBarrier}
	}
	sh.wg.Wait()
}

// fail records a worker failure and wakes the driver, which may be blocked
// in release waiting for the failed probe's outputs. When several workers
// fail, the earliest probe in sequence order is the one release surfaces:
// workers fail in wall-clock order, and a failed worker drains its queue,
// so keeping a later probe's failure would leave release waiting forever on
// the earlier probe's outputs.
func (sh *pshard) fail(m pmsg, err error) {
	sh.mu.Lock()
	switch {
	case m.kind != pmsgProbe:
		if !sh.failed {
			sh.failErr = err
		}
		sh.failImmediate = true
	case !sh.failed || !sh.failImmediate && m.seq < sh.failSeq:
		sh.failErr = err
		sh.failSeq = m.seq
	}
	sh.failed = true
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// stop shuts the workers down; call after a final quiesce. Idempotent:
// Finish and a supervisor's Abandon may both reach it when a flush panics
// halfway through the teardown.
func (sh *pshard) stop() {
	if sh.stopped {
		return
	}
	sh.stopped = true
	for _, w := range sh.workers {
		close(w.ch)
	}
	for _, w := range sh.workers {
		<-w.done
	}
}

// run is the worker loop: FIFO over messages, one stage step per message.
// Completed probes land in the reorder buffer with their (possibly empty)
// output lists; the empty entry is what tells the router the sequence
// number is done. A panic inside a step is contained by step's recover: the
// worker flips into drain mode — it keeps acking barriers (so the driver's
// insertBarrier never hangs on a dead worker) and discards everything else,
// while the recorded failure surfaces on the driver thread in release.
func (w *pworker) run() {
	defer close(w.done)
	for m := range w.ch {
		if m.kind == pmsgBarrier {
			w.sh.wg.Done()
			continue
		}
		if w.failed {
			continue
		}
		w.step(m)
	}
}

// step processes one probe or insert message, converting a panic — injected
// or genuine — into a recorded typed failure instead of crashing the
// process.
func (w *pworker) step(m pmsg) {
	defer func() {
		if r := recover(); r != nil {
			w.failed = true
			w.sh.fail(m, &fault.WorkerError{Worker: w.id, Cause: fault.AsError(r)})
		}
	}()
	s := w.sh.stage
	switch m.kind {
	case pmsgProbe:
		s.tree.inject.MaybeDelay(w.id)
		s.tree.inject.MaybePanic(w.id)
		side := int(m.side)
		opp := w.win[1-side]
		opp.expire(m.ev.ts)
		var outs []*event
		for _, cand := range s.stageCandidates(opp, m.ev.key) {
			if cand.deadline < m.ev.ts {
				continue
			}
			if s.matchesInto(m.ev, cand, side, w.scratch) {
				out := &event{parts: make([]*stream.Tuple, s.tree.m)}
				outs = append(outs, s.combine(m.ev, cand, side, out))
			}
		}
		w.win[side].insert(m.ev)
		w.sh.mu.Lock()
		w.sh.ready[m.seq] = outs
		w.sh.cond.Broadcast()
		w.sh.mu.Unlock()
	default: // pmsgInsert
		side := int(m.side)
		w.win[side].expire(m.wm)
		if m.ev.deadline >= m.wm {
			w.win[side].insert(m.ev)
		}
	}
}
