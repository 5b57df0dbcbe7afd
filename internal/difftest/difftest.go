// Package difftest is the differential harness: every deployment shape is
// checked against one flat reference, on the same feeds, keyed the same way
// and compared by one function.
//
//   - The feeds (MixWorkload, GenSeq, Arrivals) and the condition tables
//     (Conds for the runtimes, Mixes for the plans) are pure functions of
//     their arguments; the tests' expectations depend on them, so change
//     one and every differential that names it moves.
//   - A Run is what a shape exposes: its result multiset as value Keys,
//     sorted once when compared, its result count, and, where the shape
//     has them, its delivery order, its per-tuple productivity records
//     and out-of-order delays (runtime level) and its K trajectory.
//   - Flat is the one flat reference: K-slack at a fixed K, the
//     Synchronizer and one MJoin operator. Operator is its last stage
//     alone, the reference for the sharded and networked runtimes, which
//     sit behind the Synchronizer.
//   - Compare checks a shape's Run against its reference's; Within checks
//     a run that may lose results but never repeat one.
//
// Nothing here imports a package above kslack, syncer and join, so the
// tests of every package above them (shard, net, dist, core, plan, replan,
// the root API) call it from inside their own packages without an import
// cycle. The shapes reachable through exported API alone are rows of
// TestDifferential in this package's external tests.
package difftest

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash"
	"hash/fnv"
	"iter"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/stream"
	"repro/internal/syncer"
)

// MixWorkload builds an m-stream feed with bounded disorder and two
// attributes per tuple (an integer-ish key and a continuous value).
func MixWorkload(m, rounds int, seed int64, domain int) stream.Batch {
	rng := rand.New(rand.NewSource(seed))
	var out stream.Batch
	var seq uint64
	ts := stream.Time(3000)
	for i := 0; i < rounds; i++ {
		ts += 10
		for src := 0; src < m; src++ {
			t := ts
			if rng.Intn(4) == 0 {
				t -= stream.Time(rng.Intn(1500))
			}
			out = append(out, &stream.Tuple{TS: t, Seq: seq, Src: src,
				Attrs: []float64{float64(rng.Intn(domain)), float64(rng.Intn(200))}})
			seq++
		}
	}
	return out
}

// GenSeq builds a synchronized-stream-like sequence: mostly ordered with a
// disordered residue, attrs drawn from small domains so all three
// predicate kinds fire.
func GenSeq(rng *rand.Rand, m, n int, w stream.Time) []*stream.Tuple {
	var out []*stream.Tuple
	ts := stream.Time(1000)
	for i := 0; i < n; i++ {
		ts += stream.Time(rng.Intn(20))
		e := &stream.Tuple{
			TS:  ts,
			Seq: uint64(i),
			Src: rng.Intn(m),
			Attrs: []float64{
				float64(rng.Intn(8)),
				float64(rng.Intn(50)) / 2,
				rng.Float64() * 10,
			},
		}
		if rng.Intn(5) == 0 { // out-of-order residue, occasionally in scope
			e.TS -= stream.Time(rng.Intn(int(2 * w)))
			if e.TS < 0 {
				e.TS = 0
			}
		}
		e.Delay = stream.Time(rng.Intn(100))
		out = append(out, e)
	}
	return out
}

// Arrivals builds a raw multi-stream arrival sequence with real disorder,
// as a pipeline sees it before K-slack: a quarter of the tuples up to 1.5 s
// late, two attributes from small domains.
func Arrivals(rng *rand.Rand, m, n int) stream.Batch {
	var out stream.Batch
	ts := stream.Time(2000)
	for i := 0; i < n; i++ {
		ts += stream.Time(rng.Intn(12))
		t := ts
		if rng.Intn(4) == 0 {
			t = max(t-stream.Time(rng.Intn(1500)), 0)
		}
		out = append(out, &stream.Tuple{
			TS: t, Seq: uint64(i), Src: rng.Intn(m),
			Attrs: []float64{float64(rng.Intn(10)), float64(rng.Intn(30)) / 3},
		})
	}
	return out
}

// Conds is the condition table of the runtime-level differentials: one
// m-way condition per partition mode the shard router has (hash on a full
// equi class, range cells on a band, broadcast), with their mixes. wire
// renders the generic predicates as expressions, so every condition
// crosses a process boundary; otherwise they are opaque closures.
func Conds(m int, wire bool) map[string]func() *join.Condition {
	where := func(c *join.Condition, streams []int, f func(a []*stream.Tuple) bool, e *join.Expr) *join.Condition {
		if wire {
			return c.WhereExpr(e)
		}
		return c.Where(streams, f)
	}
	bandChain := func(eps float64) *join.Condition {
		c := join.Cross(m)
		for i := 0; i+1 < m; i++ {
			c.Band(i, 1, i+1, 1, eps)
		}
		return c
	}
	cs := map[string]func() *join.Condition{
		"equichain": func() *join.Condition { return join.EquiChain(m, 0) },
		"bandchain": func() *join.Condition { return bandChain(1.5) },
		"band+generic": func() *join.Condition {
			return where(bandChain(2), []int{0, m - 1}, func(a []*stream.Tuple) bool {
				return math.Abs(a[0].Attr(2)-a[m-1].Attr(2)) < 4
			}, join.Lt(join.Abs(join.Sub(join.Attr(0, 2), join.Attr(m-1, 2))), join.ConstOf(4)))
		},
		"generic-only": func() *join.Condition { // an equi the planner can't see
			return where(join.Cross(m), []int{0, m - 1}, func(a []*stream.Tuple) bool {
				return a[0].Attr(0) == a[m-1].Attr(0)
			}, join.Eq(join.Attr(0, 0), join.Attr(m-1, 0)))
		},
		"equi+band": func() *join.Condition { return join.EquiChain(m, 0).Band(0, 1, m-1, 1, 3) },
	}
	if m >= 3 {
		// Partial equi cover: S0.a0 = S1.a0 only, the rest generic.
		cs["partial-equi"] = func() *join.Condition {
			return where(join.Cross(m).Equi(0, 0, 1, 0), []int{1, 2}, func(a []*stream.Tuple) bool {
				return a[1].Attr(2) < a[2].Attr(2)+5
			}, join.Lt(join.Attr(1, 2), join.Add(join.Attr(2, 2), join.ConstOf(5))))
		}
	}
	return cs
}

// Mix is one condition of the plan-level differentials.
type Mix struct {
	Name string
	M    int
	Cond func() *join.Condition
}

// Mixes is the condition table of the plan-level differentials — an equi
// chain, the star (no full key class, no bushy tree), an equi/band mix and
// an equi chain under a generic residual — restricted to names when any
// are given. wire renders the residual as an expression, so the mix
// crosses a process boundary; otherwise it is an opaque closure.
func Mixes(wire bool, names ...string) []Mix {
	all := []Mix{
		{"equichain3", 3, func() *join.Condition { return join.EquiChain(3, 0) }},
		{"star4", 4, func() *join.Condition { return join.Star(4, []int{0, 1, 2}, []int{0, 0, 0}) }},
		{"band-equi-mix4", 4, func() *join.Condition {
			return join.Cross(4).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 8).Equi(2, 0, 3, 0)
		}},
		{"generic-mix3", 3, func() *join.Condition {
			if wire {
				return join.EquiChain(3, 0).WhereExpr(join.Le(join.Attr(0, 1), join.Add(join.Attr(2, 1), join.ConstOf(40))))
			}
			return join.EquiChain(3, 0).Where([]int{0, 2}, func(a []*stream.Tuple) bool {
				return a[0].Attr(1) <= a[2].Attr(1)+40
			})
		}},
	}
	if len(names) == 0 {
		return all
	}
	var out []Mix
	for _, mx := range all {
		if slices.Contains(names, mx.Name) {
			out = append(out, mx)
		}
	}
	return out
}

// Windows returns m windows of extent w.
func Windows(m int, w stream.Time) []stream.Time {
	out := make([]stream.Time, m)
	for i := range out {
		out[i] = w
	}
	return out
}

// KeyWidth is the most members a Key holds: the largest m of any
// differential.
const KeyWidth = 4

// Key is a result's identity, the element of a result multiset: one word
// per bound member in stream order, Src+1 in its top four bits and Seq
// below, unbound slots (a tree partial's nil parts) skipped, zero past the
// last member. Keys compare by value and order word by word, so a multiset
// is a sorted slice of them.
type Key [KeyWidth]uint64

// seqBits is the width of a member's Seq within its word of a Key.
const seqBits = 60

// KeyOf returns the key of a result's members. It panics on a result of
// more than KeyWidth bound members, or on a member whose Src or Seq does
// not fit its word (Src ≥ 15, Seq ≥ 2⁶⁰).
func KeyOf(tuples []*stream.Tuple) Key {
	var k Key
	i := 0
	for _, t := range tuples {
		if t == nil {
			continue
		}
		if i == len(k) {
			panic(fmt.Sprintf("difftest: a result of more than KeyWidth = %d members has no Key", KeyWidth))
		}
		if t.Src < 0 || t.Src >= 1<<(64-seqBits)-1 || t.Seq >= 1<<seqBits {
			if t == join.Poisoned {
				panic("difftest: a member is join.Poisoned: a path kept a borrowed result past its callback")
			}
			panic(fmt.Sprintf("difftest: member %d:%d does not fit a Key word (Src < %d, Seq < 2^%d)", t.Src, t.Seq, 1<<(64-seqBits)-1, seqBits))
		}
		k[i] = uint64(t.Src+1)<<seqBits | t.Seq
		i++
	}
	return k
}

// String renders k for failure messages: one src:seq pair per member, each
// followed by a comma.
func (k Key) String() string {
	var b strings.Builder
	for _, w := range k {
		if w == 0 {
			break
		}
		fmt.Fprintf(&b, "%d:%d,", w>>seqBits-1, w&(1<<seqBits-1))
	}
	return b.String()
}

func compareKeys(a, b Key) int {
	for i := range a {
		if a[i] != b[i] {
			return cmp.Compare(a[i], b[i])
		}
	}
	return 0
}

// Hash accumulates the golden traces' two hashes of a result stream:
// FNV-1a over each result's sequence numbers (little-endian), chained in
// delivery order (Ordered) and summed over the multiset (Set).
type Hash struct {
	ord, one hash.Hash64
	buf      [8]byte
	Set      uint64
}

// NewHash returns the hashes of an empty stream.
func NewHash() *Hash { return &Hash{ord: fnv.New64a(), one: fnv.New64a()} }

// Emit hashes one delivered result.
func (h *Hash) Emit(r stream.Result) {
	h.one.Reset()
	for _, t := range r.Tuples {
		binary.LittleEndian.PutUint64(h.buf[:], t.Seq)
		h.one.Write(h.buf[:])
	}
	v := h.one.Sum64()
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.ord.Write(h.buf[:])
	h.Set += v // commutative: a multiset hash
}

// Ordered returns the delivery-order hash.
func (h *Hash) Ordered() uint64 { return h.ord.Sum64() }

// Record is one in-order tuple's feedback-loop record: the timestamp and
// delay the statistics see and the cross-product and result counts the
// probe charged it.
type Record struct {
	TS, Delay   stream.Time
	NCross, NOn int64
}

// KStep is one step of a K trajectory. core.AdaptEvent (and the root
// package's alias of it) converts to it field for field.
type KStep struct {
	Now, OutT, PrevK, NewK stream.Time
	GammaPrime             float64
}

// Run is what one execution of a shape exposes to the differential. A nil
// Order (Records, OutOfOrder, Ks) means the run did not capture that
// stream; Compare checks a stream whenever the reference captured it.
type Run struct {
	Results    []Key         // result multiset; Compare and Within sort it
	Count      int64         // results the shape reports (Emit counts them)
	Order      []Key         // result keys in delivery order
	Records    []Record      // in-order per-tuple records, in release order
	OutOfOrder []stream.Time // delays of the out-of-order tuples, in order
	Ks         []KStep       // the K trajectory
	AvgK       float64       // the shape's reported average K, with Ks

	// bad describes the first malformed delivered result — a member that
	// is join.Poisoned, or a TS that is not the maximum of its members' TS;
	// Compare and Within fail a run that has one.
	bad string
}

// NewRun returns an empty run ready to collect results.
func NewRun() *Run { return &Run{} }

// Emit collects one delivered result (and its place in the delivery order,
// when Order is captured), and checks it: Key drops the TS, so the
// comparisons would not see a wrong one, and it cannot key a member that
// is join.Poisoned — a borrowed result some path kept past its callback,
// under join.PoisonDelivered.
func (r *Run) Emit(res stream.Result) {
	r.Count++
	for _, t := range res.Tuples {
		if t == join.Poisoned {
			if r.bad == "" {
				r.bad = fmt.Sprintf("delivered result %d reads join.Poisoned: a path kept a borrowed result past its callback", r.Count)
			}
			return
		}
	}
	k := KeyOf(res.Tuples)
	var ts stream.Time
	for _, t := range res.Tuples {
		if t != nil {
			ts = max(ts, t.TS)
		}
	}
	if res.TS != ts && r.bad == "" {
		r.bad = fmt.Sprintf("result %s stamped TS %d, its members' maximum is %d", k, res.TS, ts)
	}
	r.Results = append(r.Results, k)
	if r.Order != nil {
		r.Order = append(r.Order, k)
	}
}

// multiset sorts r's results in place and returns them. A reference shared
// by several shapes is already sorted at its later comparisons, which the
// sort checks in one pass.
func (r *Run) multiset() []Key {
	slices.SortFunc(r.Results, compareKeys)
	return r.Results
}

// Record collects one in-order tuple's record; its signature is a
// runtime's FlushInterval visitor.
func (r *Run) Record(ts, delay stream.Time, nCross, nOn int64) {
	r.Records = append(r.Records, Record{ts, delay, nCross, nOn})
}

// CountAt collects a count sink's record of n results at ts.
func (r *Run) CountAt(ts stream.Time, n int64) { r.Record(ts, 0, 0, n) }

// OnOutOfOrder collects one out-of-order tuple's delay.
func (r *Run) OnOutOfOrder(d stream.Time) { r.OutOfOrder = append(r.OutOfOrder, d) }

// Adapt collects one adaptation step.
func (r *Run) Adapt(k KStep) { r.Ks = append(r.Ks, k) }

// Operator runs seq through one MJoin operator, as the runtimes behind the
// Synchronizer see it, and captures the results, the per-tuple records and
// the out-of-order delays.
func Operator(cond *join.Condition, windows []stream.Time, seq []*stream.Tuple) *Run {
	r := NewRun()
	r.Records, r.OutOfOrder = []Record{}, []stream.Time{}
	op := join.New(cond, windows, join.WithEmit(r.Emit),
		join.WithProcessedHook(func(e *stream.Tuple, nCross, nOn int64, inOrder bool) {
			if inOrder {
				r.Record(e.TS, e.Delay, nCross, nOn)
			} else {
				r.OnOutOfOrder(e.Delay)
			}
		}))
	for _, e := range seq {
		op.Process(e)
	}
	return r
}

// Flat is the flat reference: K-slack at the fixed buffer size k on every
// stream, the Synchronizer, one MJoin operator. It captures the result
// multiset and count; at k covering the feed's disorder it is the exact
// result of the query.
func Flat(cond *join.Condition, windows []stream.Time, k stream.Time, in stream.Batch) *Run {
	r := NewRun()
	op := join.New(cond, windows, join.WithEmit(r.Emit))
	sy := syncer.New(cond.M, op.Process)
	ks := make([]*kslack.Buffer, cond.M)
	for i := range ks {
		ks[i] = kslack.New(k, sy.Push)
	}
	for _, e := range in {
		ks[e.Src].Push(e)
	}
	for _, b := range ks {
		b.Flush()
	}
	for i := 0; i < cond.M; i++ {
		sy.Close(i)
	}
	return r
}

// envelope is what GobRoundTrip encodes: a state and its tuple table.
type envelope[S any] struct {
	Tuples []fault.TupleRec
	State  S
}

// GobRoundTrip forces a checkpoint — its state and the tuple table the
// state references — through a real gob encode/decode cycle, as a
// checkpoint file would, and returns the decoded state and its arena.
func GobRoundTrip[S any](t testing.TB, st S, tt *fault.TupleTable) (S, *fault.TupleArena) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope[S]{tt.Recs, st}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out envelope[S]
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out.State, fault.NewTupleArena(out.Tuples)
}

// Compare checks got against the reference want: neither may have
// delivered a result whose TS is not its members' maximum (Emit); the
// reference must have results; the counts must agree and the sorted multisets must be equal
// key by key; and every stream the reference captured — the delivery
// order, per-tuple records and out-of-order delays in order, the K
// trajectory step by step with the average K — must be got's.
func Compare(t testing.TB, name string, want, got *Run) {
	t.Helper()
	for _, r := range []*Run{want, got} {
		if r.bad != "" {
			t.Errorf("%s: %s", name, r.bad)
		}
	}
	if want.Count == 0 {
		t.Fatalf("%s: degenerate workload, no results", name)
	}
	if got.Count != want.Count {
		t.Errorf("%s: %d results, want %d", name, got.Count, want.Count)
	}
	for k, n := range multiplicities(want.multiset(), got.multiset()) {
		if n[0] == 0 {
			t.Errorf("%s: unexpected result %s ×%d", name, k, n[1])
			break
		}
		if n[0] != n[1] {
			t.Errorf("%s: result %s ×%d, want ×%d", name, k, n[1], n[0])
			break
		}
	}
	if want.Order != nil {
		same(t, name, "delivered result", want.Order, got.Order, equal)
	}
	if want.Records != nil {
		same(t, name, "record", want.Records, got.Records, equal)
		same(t, name, "out-of-order delay", want.OutOfOrder, got.OutOfOrder, equal)
	}
	if want.Ks != nil {
		same(t, name, "adaptation", want.Ks, got.Ks, equal)
		if got.AvgK != want.AvgK {
			t.Errorf("%s: AvgK %v, want %v", name, got.AvgK, want.AvgK)
		}
	}
}

// Within checks a run that may lose results but must never invent or
// repeat one — an adaptive run against the full-coverage reference: every
// result of either is stamped its members' maximum TS (Emit), got
// delivered something, and no result more often than want has it.
func Within(t testing.TB, name string, want, got *Run) {
	t.Helper()
	for _, r := range []*Run{want, got} {
		if r.bad != "" {
			t.Fatalf("%s: %s", name, r.bad)
		}
	}
	if got.Count == 0 {
		t.Fatalf("%s: delivered nothing", name)
	}
	for k, n := range multiplicities(want.multiset(), got.multiset()) {
		if n[1] > n[0] {
			t.Fatalf("%s: result %s delivered ×%d, reference has ×%d — duplicate or spurious delivery", name, k, n[1], n[0])
		}
	}
}

// multiplicities walks two sorted key multisets in step and yields each
// key of either with its multiplicity in each.
func multiplicities(a, b []Key) iter.Seq2[Key, [2]int] {
	return func(yield func(Key, [2]int) bool) {
		for len(a) > 0 || len(b) > 0 {
			var k Key
			switch {
			case len(b) == 0 || len(a) > 0 && compareKeys(a[0], b[0]) <= 0:
				k = a[0]
			default:
				k = b[0]
			}
			var n [2]int
			for len(a) > 0 && a[0] == k {
				a, n[0] = a[1:], n[0]+1
			}
			for len(b) > 0 && b[0] == k {
				b, n[1] = b[1:], n[1]+1
			}
			if !yield(k, n) {
				return
			}
		}
	}
}

func equal[E comparable](a, b E) bool { return a == b }

// same checks two sequences element by element and reports the first
// difference.
func same[E any](t testing.TB, name, what string, want, got []E, eq func(E, E) bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d %ss, want %d", name, len(got), what, len(want))
		return
	}
	for i := range want {
		if !eq(want[i], got[i]) {
			t.Errorf("%s: %s %d = %+v, want %+v", name, what, i, got[i], want[i])
			return
		}
	}
}
