// Package plan is the deployment planner: it turns (Condition, windows,
// hints) into an explicit plan graph — the deployment shape of one logical
// MSWJ — and compiles plan graphs into executors. It is the single seam the
// public API sits behind: the flat MJoin-style operator (internal/core),
// the key-partitioned sharded operator (internal/shard via core), and the
// binary-tree deployments of Sec. V (internal/dist), including bushy shapes
// and stage-wise sharding, are all reachable as shapes of one graph.
//
// # Nodes
//
//   - Leaf{stream}: one raw input stream.
//   - Flat{}: the MJoin-style operator over all streams (Alg. 2).
//   - Stage{left, right}: a binary join of two sub-plans, fronted by its
//     own Synchronizer (a tree of Stages is the Sec. V deployment; both
//     sides may be Stages — bushy shapes).
//   - Shard{n, route, child}: n key-partitioned copies of the child's
//     state. Over a Flat child this is the internal/shard runtime, routed
//     by the condition's global partition key. Over a Stage child the
//     route is the STAGE's own cross key — a binary stage always has one
//     when any equi or band predicate connects its sides, which is how
//     conditions without a full key class (the x4 star) still run fully
//     partitioned, with no broadcast route.
//
// # Cost model
//
// Auto picks a default shape from the condition's key-class structure and
// the caller's resource hints (shard budget, estimated predicate
// selectivity, per-stream arrival rates): see Auto for the decision
// procedure and DESIGN.md §9 for the rationale.
package plan

import (
	"fmt"
	"math"

	"repro/internal/join"
	"repro/internal/stream"
)

// Node is one plan-graph node.
type Node interface {
	// Streams returns the raw streams the node covers, ascending.
	Streams() []int
}

// Leaf is one raw input stream.
type Leaf struct {
	Stream int
}

// Streams implements Node.
func (l Leaf) Streams() []int { return []int{l.Stream} }

// Flat executes the full condition as the single MJoin-style operator of
// Alg. 2 (the classic deployment).
type Flat struct {
	M int
}

// Streams implements Node.
func (f Flat) Streams() []int {
	out := make([]int, f.M)
	for i := range out {
		out[i] = i
	}
	return out
}

// Stage is a binary join of two sub-plans.
type Stage struct {
	Left, Right Node
}

// Streams implements Node.
func (s Stage) Streams() []int {
	return join.SortedStreams(append(s.Left.Streams(), s.Right.Streams()...))
}

// Shard runs N key-partitioned copies of the child's state. Route records
// what keys the router uses: the condition's global partition scheme over a
// Flat child, the stage's own cross-key class over a Stage child.
type Shard struct {
	N     int
	Route join.PartitionScheme
	Child Node
}

// Streams implements Node.
func (s Shard) Streams() []int { return s.Child.Streams() }

// Broadcast reports whether the route replicates any stream to every shard
// (the fallback stage-wise sharding exists to eliminate).
func (s Shard) Broadcast() bool {
	if s.Route.Mode == join.PartitionNone {
		return true
	}
	if _, ok := s.Child.(Stage); ok {
		// A stage route covers exactly its two key streams; the −1 entries
		// of the remaining streams are not routed through this node at all,
		// and band replicas are ±eps neighbours, not broadcasts.
		return false
	}
	return anyUncovered(s.Route)
}

func anyUncovered(p join.PartitionScheme) bool {
	for _, a := range p.KeyAttr {
		if a < 0 {
			return true
		}
	}
	return false
}

// Graph is one deployment plan: the condition, the per-stream windows, and
// the shape.
type Graph struct {
	Cond    *join.Condition
	Windows []stream.Time
	Root    Node
	// Reason is the cost-model note Explain prints: why this shape.
	Reason string
}

// FlatShards reports whether the graph is the flat operator, bare or under
// one Shard node, and its shard count (0 when bare). Every other shape is a
// tree.
func (g *Graph) FlatShards() (shards int, flat bool) {
	switch root := g.Root.(type) {
	case Flat:
		return 0, true
	case Shard:
		if _, ok := root.Child.(Flat); ok {
			return root.N, true
		}
	}
	return 0, false
}

// Hints carries the resource and statistics hints the cost model consumes.
// The zero value means "no parallelism, nothing known".
type Hints struct {
	// Shards is the parallel worker budget; ≤ 1 plans single-threaded.
	Shards int
	// Selectivity estimates the fraction of candidate pairs satisfying one
	// join predicate (as internal/stats-style profiling measures it:
	// n^on/n× per predicate). 0 means unknown; low values make tree shapes
	// with materialized intermediates affordable.
	Selectivity float64
	// Rates optionally gives per-stream arrival rates in tuples per time
	// unit (stats.Manager.Rate). Uniform rate 0.1/ms is assumed when nil.
	Rates []float64
}

// EdgeSigma is one measured per-predicate selectivity: the fraction of
// candidate pairs crossing the (Left, Right) stream edge that satisfy its
// equi/band predicate.
type EdgeSigma struct {
	Left, Right int
	Sigma       float64
}

// Measured carries statistics measured on a RUNNING join — the first-class
// planner input the online re-planner feeds back each measurement period,
// overriding the static hints where present. Unlike Hints (a guess made
// before the first tuple), Measured values come from the Statistics Manager
// and the delivered-result counters of the live deployment.
type Measured struct {
	// Rates is the measured per-stream arrival rate in tuples per time
	// unit; overrides Hints.Rates when non-nil.
	Rates []float64
	// Edges gives measured per-edge selectivities; edges not listed fall
	// back to Hints.Selectivity. An entry's stream pair is unordered.
	Edges []EdgeSigma
}

// MeasureEdges estimates per-edge selectivities from cumulative counters:
// results over the expected unfiltered m-way combinations
// Σᵢ arrivals[i]·∏_{j≠i} rates[j]·W_j (an arrival on stream i probes the
// live windows of every other stream, whose expected population is
// rate_j·W_j), clamped to [1e-9, 1]. The cost model multiplies one σ per
// predicate edge along a path, so the total is spread uniformly over the
// condition's equi and band edges: each gets σ_tot^(1/e). It returns nil
// while nothing can be estimated (no combinations yet, or no equi/band
// edge).
func MeasureEdges(cond *join.Condition, windows []stream.Time, arrivals []int64, rates []float64, results int64) []EdgeSigma {
	e := len(cond.Equis) + len(cond.Bands)
	if e == 0 {
		return nil
	}
	var cross float64
	for i := range arrivals {
		comb := float64(arrivals[i])
		for j := range arrivals {
			if j == i {
				continue
			}
			comb *= rates[j] * float64(windows[j])
		}
		cross += comb
	}
	if cross <= 0 {
		return nil
	}
	sigEdge := math.Pow(math.Min(1, math.Max(float64(results)/cross, 1e-9)), 1/float64(e))
	edges := make([]EdgeSigma, 0, e)
	for _, p := range cond.Equis {
		edges = append(edges, EdgeSigma{Left: p.LeftStream, Right: p.RightStream, Sigma: sigEdge})
	}
	for _, p := range cond.Bands {
		edges = append(edges, EdgeSigma{Left: p.LeftStream, Right: p.RightStream, Sigma: sigEdge})
	}
	return edges
}

// FlatGraph returns the classic single-operator deployment.
func FlatGraph(cond *join.Condition, windows []stream.Time) *Graph {
	check(cond, windows)
	return &Graph{Cond: cond, Windows: windows, Root: Flat{M: cond.M},
		Reason: "flat MJoin operator (explicit)"}
}

// ShardedFlat returns the key-partitioned flat operator (qdhj.WithShards'
// deployment); the route is the condition's global partition scheme.
func ShardedFlat(cond *join.Condition, windows []stream.Time, n int) *Graph {
	check(cond, windows)
	if n <= 1 {
		return FlatGraph(cond, windows)
	}
	g := &Graph{Cond: cond, Windows: windows,
		Root:   Shard{N: n, Route: cond.Partition(), Child: Flat{M: cond.M}},
		Reason: fmt.Sprintf("flat operator × %d shards (explicit)", n)}
	return g
}

// Spine returns the unsharded left-deep tree over the streams in their
// natural order — the Sec. V deployment shape, ParsePlan's "tree".
func Spine(cond *join.Condition, windows []stream.Time) *Graph {
	check(cond, windows)
	order := make([]int, cond.M)
	for i := range order {
		order[i] = i
	}
	return &Graph{Cond: cond, Windows: windows, Root: spineOver(order),
		Reason: "left-deep binary tree (explicit)"}
}

func spineOver(order []int) Node {
	var n Node = Leaf{Stream: order[0]}
	for _, s := range order[1:] {
		n = Stage{Left: n, Right: Leaf{Stream: s}}
	}
	return n
}

func check(cond *join.Condition, windows []stream.Time) {
	if cond == nil || len(windows) != cond.M {
		panic("plan: condition arity must match window count")
	}
	if cond.M < 2 {
		panic("plan: need at least 2 streams")
	}
}

// Auto analyzes the condition and picks a default deployment shape:
//
//  1. With a shard budget and a key class covering EVERY stream (full equi
//     or full band), the flat operator shards directly — no intermediate
//     materialization, no broadcast.
//  2. With a shard budget but no full key class, a binary tree is built
//     and each stage is sharded on its own cross key — stage-wise
//     sharding. Stages whose sides no equi/band predicate connects stay
//     unsharded (their windows are usually tiny anyway); only if NO stage
//     is keyed does the planner fall back to the broadcast flat shards.
//  3. Without a shard budget, the flat operator is the default; a tree is
//     chosen only when the selectivity hint says intermediate results are
//     cheap to materialize (estimated stage cardinalities no larger than
//     the raw windows) — the regime where per-stage K buys its latency
//     advantage (DESIGN.md §8/§9).
//
// Tree shapes are chosen by estimated cost over the candidate splits: a
// bushy (balanced, connected, keyed) split is preferred when its total
// intermediate cardinality undercuts the greedy spine's. Auto seals the
// condition, like compiling it into an operator does.
func Auto(cond *join.Condition, windows []stream.Time, h Hints) *Graph {
	return AutoMeasured(cond, windows, h, nil)
}

// AutoMeasured is Auto with measured runtime statistics layered over the
// static hints: measured rates replace hinted rates, measured per-edge
// selectivities replace the uniform selectivity guess on the edges they
// cover. ms may be nil (plain Auto). This is the entry point the online
// re-planner calls each measurement period.
func AutoMeasured(cond *join.Condition, windows []stream.Time, h Hints, ms *Measured) *Graph {
	check(cond, windows)
	cm := newCostModel(cond, windows, h, ms)
	if h.Shards > 1 {
		scheme := cond.Partition()
		full := !anyUncovered(scheme) && scheme.Mode != join.PartitionNone
		if full {
			return &Graph{Cond: cond, Windows: windows,
				Root: Shard{N: h.Shards, Route: scheme, Child: Flat{M: cond.M}},
				Reason: fmt.Sprintf("full %s key class covers all streams → flat operator × %d shards",
					scheme.Mode, h.Shards)}
		}
		root, keyedStages := shardStages(cond, cm.bestTree(), h.Shards)
		if keyedStages > 0 {
			return &Graph{Cond: cond, Windows: windows, Root: root,
				Reason: "no full partition key class → stage-wise sharding: every binary stage routes on its own cross key"}
		}
		return &Graph{Cond: cond, Windows: windows,
			Root:   Shard{N: h.Shards, Route: scheme, Child: Flat{M: cond.M}},
			Reason: "no key class at any granularity (generic-only condition) → flat shards with broadcast fallback"}
	}
	if cm.known() && cond.M >= 3 {
		tree := cm.bestTree()
		if cost := cm.treeCost(tree); cost <= cm.windowBudget() {
			return &Graph{Cond: cond, Windows: windows, Root: tree,
				Reason: fmt.Sprintf("low selectivity (σ=%.2g, est. intermediates %.0f ≤ raw windows %.0f) → binary tree with per-stage K",
					cm.sigmaRepr(), cost, cm.windowBudget())}
		}
	}
	return &Graph{Cond: cond, Windows: windows, Root: Flat{M: cond.M},
		Reason: "flat MJoin operator (default: no shard budget, intermediates not known to be cheap)"}
}

// shardStages wraps every keyed stage of the tree in a Shard node and
// reports how many stages got one.
func shardStages(cond *join.Condition, n Node, shards int) (Node, int) {
	switch t := n.(type) {
	case Stage:
		left, kl := shardStages(cond, t.Left, shards)
		right, kr := shardStages(cond, t.Right, shards)
		st := Stage{Left: left, Right: right}
		keyed := kl + kr
		if route, ok := StageRoute(cond, st); ok {
			return Shard{N: shards, Route: route, Child: st}, keyed + 1
		}
		return st, keyed
	default:
		return n, 0
	}
}

// StageRoute computes the shard route of a stage: the first cross equi
// (hash partitioning) or, failing that, the first cross band (range-cell
// partitioning with ±eps replication), rendered as a PartitionScheme
// covering the stage's two key streams. ok is false when no equi or band
// predicate connects the sides.
func StageRoute(cond *join.Condition, st Stage) (join.PartitionScheme, bool) {
	link := cond.Cross(st.Left.Streams(), st.Right.Streams())
	key := make([]int, cond.M)
	for i := range key {
		key[i] = -1
	}
	switch {
	case len(link.Equis) > 0:
		e := link.Equis[0]
		key[e.LeftStream], key[e.RightStream] = e.LeftAttr, e.RightAttr
		return join.PartitionScheme{Mode: join.PartitionEqui, KeyAttr: key}, true
	case len(link.Bands) > 0:
		b := link.Bands[0]
		key[b.LeftStream], key[b.RightStream] = b.LeftAttr, b.RightAttr
		return join.PartitionScheme{Mode: join.PartitionBand, KeyAttr: key, Delta: b.Eps}, true
	}
	return join.PartitionScheme{}, false
}

// ---- cost model ----

// costModel estimates steady-state cardinalities from window sizes, arrival
// rates and the per-predicate selectivity — hinted uniformly, or measured
// per edge when the re-planner supplies a Measured overlay.
type costModel struct {
	cond    *join.Condition
	windows []stream.Time
	rates   []float64
	sigma   float64 // 0 = unknown
	// edge maps an unordered stream pair to its measured selectivity,
	// consulted before the uniform sigma.
	edge map[[2]int]float64
}

func newCostModel(cond *join.Condition, windows []stream.Time, h Hints, ms *Measured) *costModel {
	cm := &costModel{cond: cond, windows: windows, sigma: h.Selectivity}
	cm.rates = h.Rates
	if ms != nil && ms.Rates != nil {
		cm.rates = ms.Rates
	}
	if cm.rates == nil {
		cm.rates = make([]float64, cond.M)
		for i := range cm.rates {
			cm.rates[i] = 0.1 // one tuple per 10 time units, the gen default
		}
	}
	if ms != nil && len(ms.Edges) > 0 {
		cm.edge = make(map[[2]int]float64, len(ms.Edges))
		for _, e := range ms.Edges {
			cm.edge[edgeKey(e.Left, e.Right)] = e.Sigma
		}
	}
	return cm
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (cm *costModel) known() bool { return cm.sigma > 0 || len(cm.edge) > 0 }

// edgeSigma resolves the selectivity of one predicate edge: the measured
// per-edge value when the re-planner supplied one, the uniform hint
// otherwise, and the pessimistic 1 when nothing is known.
func (cm *costModel) edgeSigma(a, b int) float64 {
	if s, ok := cm.edge[edgeKey(a, b)]; ok {
		return s
	}
	if cm.sigma > 0 {
		return cm.sigma
	}
	return 1
}

// winSize estimates the steady-state cardinality of stream i's window.
func (cm *costModel) winSize(i int) float64 {
	return math.Max(1, cm.rates[i]*float64(cm.windows[i]))
}

// windowBudget is Σ_i |W_i|: the state the flat operator holds anyway.
// Tree shapes whose intermediates fit in the same order are "cheap".
func (cm *costModel) windowBudget() float64 {
	var s float64
	for i := range cm.windows {
		s += cm.winSize(i)
	}
	return s
}

// card estimates the cardinality of the join over streams: the product of
// window sizes discounted by σ per connecting equi/band predicate.
func (cm *costModel) card(streams []int) float64 {
	in := make([]bool, cm.cond.M)
	for _, s := range streams {
		in[s] = true
	}
	out := 1.0
	for _, s := range streams {
		out *= cm.winSize(s)
	}
	for _, p := range cm.cond.Equis {
		if in[p.LeftStream] && in[p.RightStream] {
			out *= cm.edgeSigma(p.LeftStream, p.RightStream)
		}
	}
	for _, p := range cm.cond.Bands {
		if in[p.LeftStream] && in[p.RightStream] {
			out *= cm.edgeSigma(p.LeftStream, p.RightStream)
		}
	}
	return out
}

// sigmaRepr is the representative selectivity Explain reasons print: the
// geometric mean over measured edges, or the uniform hint.
func (cm *costModel) sigmaRepr() float64 {
	if len(cm.edge) == 0 {
		return cm.sigma
	}
	logSum, n := 0.0, 0
	for _, s := range cm.edge {
		logSum += math.Log(math.Max(s, 1e-12))
		n++
	}
	return math.Exp(logSum / float64(n))
}

// treeCost is the total estimated intermediate cardinality: Σ over
// internal nodes (excluding the root, whose output is the final result
// every shape pays for) of card(node).
func (cm *costModel) treeCost(n Node) float64 {
	var walk func(Node, bool) float64
	walk = func(n Node, root bool) float64 {
		st, ok := n.(Stage)
		if !ok {
			return 0
		}
		c := walk(st.Left, false) + walk(st.Right, false)
		if !root {
			c += cm.card(st.Streams())
		}
		return c
	}
	return walk(n, true)
}

// bestTree returns the cheapest candidate tree shape: the greedy
// connected-first spine, or a recursive bushy split when both halves stay
// connected, the cross link is keyed, and the estimated cost undercuts the
// spine's.
func (cm *costModel) bestTree() Node {
	all := make([]int, cm.cond.M)
	for i := range all {
		all[i] = i
	}
	spine := spineOver(cm.spineOrder(all))
	bushy, ok := cm.bushyOver(all)
	if ok && cm.treeCost(bushy) < cm.treeCost(spine) {
		return bushy
	}
	return spine
}

// spineOrder orders streams connected-first (the same greedy the operator
// planner uses: equi connections dominate band connections, ties break on
// the smallest index), starting from the smallest covered stream.
func (cm *costModel) spineOrder(streams []int) []int {
	bound := map[int]bool{streams[0]: true}
	order := []int{streams[0]}
	for len(order) < len(streams) {
		best, bestConn := -1, -1
		for _, s := range streams {
			if bound[s] {
				continue
			}
			conn := 0
			for _, p := range cm.cond.Equis {
				if (p.LeftStream == s && bound[p.RightStream]) || (p.RightStream == s && bound[p.LeftStream]) {
					conn += 256
				}
			}
			for _, p := range cm.cond.Bands {
				if (p.LeftStream == s && bound[p.RightStream]) || (p.RightStream == s && bound[p.LeftStream]) {
					conn++
				}
			}
			if conn > bestConn {
				best, bestConn = s, conn
			}
		}
		bound[best] = true
		order = append(order, best)
	}
	return order
}

// bushyOver recursively splits streams into two connected, keyed halves of
// near-equal size; ok is false when no valid split exists at the top level
// (deeper levels fall back to spines over their subset).
func (cm *costModel) bushyOver(streams []int) (Node, bool) {
	if len(streams) == 1 {
		return Leaf{Stream: streams[0]}, true
	}
	if len(streams) == 2 {
		return Stage{Left: Leaf{Stream: streams[0]}, Right: Leaf{Stream: streams[1]}}, true
	}
	k := len(streams) / 2
	var best Node
	bestCost := math.Inf(1)
	// Enumerate subsets of size k containing streams[0] (canonical halves).
	idx := make([]int, k)
	var try func(pos, next int)
	try = func(pos, next int) {
		if pos == k {
			left := make([]int, k)
			for i, j := range idx {
				left[i] = streams[j]
			}
			right := diff(streams, left)
			if !cm.cond.Connected(left) || !cm.cond.Connected(right) {
				return
			}
			if !cm.cond.Cross(left, right).Keyed() {
				return
			}
			l, _ := cm.bushyOver(left)
			if l == nil {
				l = spineOver(cm.spineOrder(left))
			}
			r, _ := cm.bushyOver(right)
			if r == nil {
				r = spineOver(cm.spineOrder(right))
			}
			cand := Stage{Left: l, Right: r}
			if c := cm.treeCost(cand); c < bestCost {
				best, bestCost = cand, c
			}
			return
		}
		for j := next; j < len(streams); j++ {
			idx[pos] = j
			try(pos+1, j+1)
		}
	}
	idx[0] = 0
	try(1, 1)
	if best == nil {
		return nil, false
	}
	return best, true
}

func diff(all, remove []int) []int {
	rm := map[int]bool{}
	for _, s := range remove {
		rm[s] = true
	}
	var out []int
	for _, s := range all {
		if !rm[s] {
			out = append(out, s)
		}
	}
	return out
}

// ---- comparable plan cost ----

// treeStateFraction prices the per-stage window upkeep of a tree relative
// to one flat probe over the full window budget: leaf windows still exist,
// but each arrival probes only its own stage instead of every window.
const treeStateFraction = 0.1

// CostOf reduces a plan graph to one comparable scalar under the given
// hints and measured statistics — the quantity the online re-planner's
// hysteresis gate compares across candidate shapes. The model follows the
// same tradeoff Auto decides by:
//
//   - A flat root costs its window budget Σ_i |W_i| — the state the MJoin
//     operator scans and maintains per probe.
//   - A keyed Shard over the flat operator divides that by its fan-out
//     (each worker holds and probes 1/N of the state); a broadcast route
//     replicates state and earns no discount.
//   - A tree root costs treeStateFraction of the window budget plus the
//     estimated cardinality of every materialized intermediate, each
//     divided by its own stage's shard fan-out.
//
// Lower is better. Dense predicates blow up the intermediates and push the
// scalar toward flat shapes; sparse predicates shrink them and favor trees.
func CostOf(g *Graph, h Hints, ms *Measured) float64 {
	cm := newCostModel(g.Cond, g.Windows, h, ms)
	switch root := g.Root.(type) {
	case Flat:
		return cm.windowBudget()
	case Shard:
		if _, ok := root.Child.(Flat); ok {
			if root.Broadcast() {
				return cm.windowBudget()
			}
			return cm.windowBudget() / float64(root.N)
		}
	}
	return treeStateFraction*cm.windowBudget() + cm.shardedTreeCost(g.Root, true)
}

// shardedTreeCost is treeCost with each non-root intermediate discounted by
// its stage's shard fan-out.
func (cm *costModel) shardedTreeCost(n Node, root bool) float64 {
	shards := 1
	if sh, ok := n.(Shard); ok {
		shards = sh.N
		n = sh.Child
	}
	st, ok := n.(Stage)
	if !ok {
		return 0
	}
	c := cm.shardedTreeCost(st.Left, false) + cm.shardedTreeCost(st.Right, false)
	if !root {
		c += cm.card(st.Streams()) / float64(shards)
	}
	return c
}
