package net

import (
	"errors"
	"fmt"
	"math/rand"
	stdnet "net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/leakcheck"
	"repro/internal/shard"
	"repro/internal/stream"
)

// startWorkers launches n in-process daemons on loopback listeners and
// returns their addresses. The listeners close at test cleanup, ending the
// accept loops.
func startWorkers(t *testing.T, n int, inj *fault.Injector) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		done := make(chan struct{})
		go func() {
			defer close(done)
			Serve(l, ServeConfig{Inject: inj})
		}()
		t.Cleanup(func() {
			l.Close()
			<-done
		})
	}
	return addrs
}

// tupleRecord is one in-order tuple's feedback-loop record.
type tupleRecord struct {
	ts, delay   stream.Time
	nCross, nOn int64
}

// refRun executes the sequence on a single operator, capturing the streams
// the networked runtime must reproduce bit-for-bit.
func refRun(cond *join.Condition, windows []stream.Time, seq []*stream.Tuple) (recs []tupleRecord, ooo []stream.Time, results map[string]int) {
	results = map[string]int{}
	op := join.New(cond, windows,
		join.WithEmit(func(r stream.Result) { results[difftest.Sig(r.Tuples)]++ }),
		join.WithProcessedHook(func(e *stream.Tuple, nCross, nOn int64, inOrder bool) {
			if inOrder {
				recs = append(recs, tupleRecord{e.TS, e.Delay, nCross, nOn})
			} else {
				ooo = append(ooo, e.Delay)
			}
		}))
	for _, e := range seq {
		op.Process(e)
	}
	return recs, ooo, results
}

// netRun executes the same sequence through a Session against n in-process
// daemons, flushing every flushEvery tuples.
func netRun(t *testing.T, cond *join.Condition, windows []stream.Time, seq []*stream.Tuple, n, flushEvery, frameBatch int) (recs []tupleRecord, ooo []stream.Time, results map[string]int) {
	t.Helper()
	results = map[string]int{}
	addrs := startWorkers(t, n, nil)
	s := NewSession(addrs, "net-test", shard.Config{
		Cond: cond, Windows: windows, Materialize: true,
		BatchSize:    frameBatch,
		OnOutOfOrder: func(d stream.Time) { ooo = append(ooo, d) },
	})
	flush := func() {
		s.FlushInterval(func(ts, delay stream.Time, nCross, nOn int64) {
			recs = append(recs, tupleRecord{ts, delay, nCross, nOn})
		}, func(r stream.Result) { results[difftest.Sig(r.Tuples)]++ })
	}
	for i, e := range seq {
		s.Route(e)
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			flush()
		}
	}
	flush()
	s.Close()
	return recs, ooo, results
}

// wireConds enumerates condition shapes for all three partition modes —
// every one wireable, so generic predicates use WhereExpr.
func wireConds(m int) map[string]func() *join.Condition {
	cs := map[string]func() *join.Condition{
		"equichain": func() *join.Condition { return join.EquiChain(m, 0) },
		"bandchain": func() *join.Condition {
			c := join.Cross(m)
			for i := 0; i+1 < m; i++ {
				c.Band(i, 1, i+1, 1, 1.5)
			}
			return c
		},
		"band+generic": func() *join.Condition {
			c := join.Cross(m)
			for i := 0; i+1 < m; i++ {
				c.Band(i, 1, i+1, 1, 2)
			}
			return c.WhereExpr(join.Lt(
				join.Abs(join.Sub(join.Attr(0, 2), join.Attr(m-1, 2))),
				join.ConstOf(4)))
		},
		"generic-only": func() *join.Condition {
			return join.Cross(m).WhereExpr(join.Eq(join.Attr(0, 0), join.Attr(m-1, 0)))
		},
	}
	return cs
}

// TestNetworkedMatchesSingleOperator is the tentpole differential: for
// every partition mode, worker counts 1/2/4 and frame batches from
// per-tuple to 64, the networked runtime's merged productivity records,
// out-of-order charges and result multisets are bit-for-bit a single
// operator's.
func TestNetworkedMatchesSingleOperator(t *testing.T) {
	leakcheck.Check(t)
	for _, m := range []int{2, 3} {
		for name, mk := range wireConds(m) {
			for _, tc := range []struct{ workers, batch int }{
				{1, 7}, {2, 1}, {2, 64}, {4, 1}, {4, 64},
			} {
				t.Run(fmt.Sprintf("m=%d/%s/w=%d/b=%d", m, name, tc.workers, tc.batch), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(101*m + 7*tc.workers + tc.batch)))
					w := stream.Time(300)
					seq := difftest.GenSeq(rng, m, 600, w)
					windows := make([]stream.Time, m)
					for i := range windows {
						windows[i] = w
					}
					wantRecs, wantOOO, wantRes := refRun(mk(), windows, seq)
					gotRecs, gotOOO, gotRes := netRun(t, mk(), windows, seq, tc.workers, 97, tc.batch)
					if len(gotRecs) != len(wantRecs) {
						t.Fatalf("record count: got %d, want %d", len(gotRecs), len(wantRecs))
					}
					for i := range wantRecs {
						if gotRecs[i] != wantRecs[i] {
							t.Fatalf("record %d: got %+v, want %+v", i, gotRecs[i], wantRecs[i])
						}
					}
					if fmt.Sprint(gotOOO) != fmt.Sprint(wantOOO) {
						t.Fatalf("ooo stream diverges:\n got %v\nwant %v", gotOOO, wantOOO)
					}
					if len(gotRes) != len(wantRes) {
						t.Fatalf("distinct results: got %d, want %d", len(gotRes), len(wantRes))
					}
					for k, v := range wantRes {
						if gotRes[k] != v {
							t.Fatalf("result %q: got %d, want %d", k, gotRes[k], v)
						}
					}
				})
			}
		}
	}
}

// TestNetworkedMatchesShardedState verifies the checkpoint surface:
// capture a mid-run state from a networked session and from an in-process
// runtime and check they restore into each other — the deployment-agnostic
// snapshot contract.
func TestNetworkedStateRestoresCrossRuntime(t *testing.T) {
	leakcheck.Check(t)
	m := 3
	cond := func() *join.Condition { return join.EquiChain(m, 0) }
	w := stream.Time(300)
	windows := []stream.Time{w, w, w}
	rng := rand.New(rand.NewSource(7))
	seq := difftest.GenSeq(rng, m, 500, w)
	half := len(seq) / 2

	// Reference: full run on the in-process sharded runtime.
	wantRecs, _, wantRes := refRun(cond(), windows, seq)

	// Run the first half networked, capture, restore into a fresh
	// in-process runtime, run the second half there.
	addrs := startWorkers(t, 2, nil)
	s := NewSession(addrs, "cross-test", shard.Config{Cond: cond(), Windows: windows, Materialize: true})
	var recs []tupleRecord
	var results = map[string]int{}
	visit := func(ts, delay stream.Time, nCross, nOn int64) {
		recs = append(recs, tupleRecord{ts, delay, nCross, nOn})
	}
	emit := func(r stream.Result) { results[difftest.Sig(r.Tuples)]++ }
	for _, e := range seq[:half] {
		s.Route(e)
	}
	s.FlushInterval(visit, emit)
	tt := fault.NewTupleTable()
	st := s.State(tt)
	s.Close()

	rt := shard.New(shard.Config{N: 2, Cond: cond(), Windows: windows, Materialize: true})
	rt.Restore(st, fault.NewTupleArena(tt.Recs))
	for _, e := range seq[half:] {
		rt.Route(e)
	}
	rt.FlushInterval(visit, emit)
	rt.Close()

	// The captured interval boundary differs from refRun's (which never
	// flushes), so compare only totals and the result multiset.
	var gotOn, wantOn int64
	for _, r := range recs {
		gotOn += r.nOn
	}
	for _, r := range wantRecs {
		wantOn += r.nOn
	}
	if gotOn != wantOn {
		t.Fatalf("result count after cross-restore: got %d, want %d", gotOn, wantOn)
	}
	if len(results) != len(wantRes) {
		t.Fatalf("distinct results: got %d, want %d", len(results), len(wantRes))
	}
	for k, v := range wantRes {
		if results[k] != v {
			t.Fatalf("result %q: got %d, want %d", k, results[k], v)
		}
	}

	// And the reverse direction: first half in-process, second networked.
	results2 := map[string]int{}
	var on2 int64
	visit2 := func(ts, delay stream.Time, nCross, nOn int64) { on2 += nOn }
	emit2 := func(r stream.Result) { results2[difftest.Sig(r.Tuples)]++ }
	rt2 := shard.New(shard.Config{N: 2, Cond: cond(), Windows: windows, Materialize: true})
	for _, e := range seq[:half] {
		rt2.Route(e)
	}
	rt2.FlushInterval(visit2, emit2)
	tt2 := fault.NewTupleTable()
	st2 := rt2.State(tt2)
	rt2.Close()

	addrs2 := startWorkers(t, 2, nil)
	s2 := NewSession(addrs2, "cross-test", shard.Config{Cond: cond(), Windows: windows, Materialize: true})
	s2.Restore(st2, fault.NewTupleArena(tt2.Recs))
	for _, e := range seq[half:] {
		s2.Route(e)
	}
	s2.FlushInterval(visit2, emit2)
	s2.Close()
	if on2 != wantOn {
		t.Fatalf("result count after reverse cross-restore: got %d, want %d", on2, wantOn)
	}
	for k, v := range wantRes {
		if results2[k] != v {
			t.Fatalf("reverse result %q: got %d, want %d", k, results2[k], v)
		}
	}
	if len(results2) != len(wantRes) {
		t.Fatalf("reverse distinct results: got %d, want %d", len(results2), len(wantRes))
	}
}

// TestWorkerFaultSurfacesTyped: an injected worker panic flips the worker
// to drain mode and surfaces on the driver as *fault.WorkerError at the
// next barrier, before anything is emitted — the in-process contract.
func TestWorkerFaultSurfacesTyped(t *testing.T) {
	leakcheck.Check(t)
	m := 2
	cond := join.EquiChain(m, 0)
	w := stream.Time(300)
	windows := []stream.Time{w, w}
	seq := difftest.GenSeq(rand.New(rand.NewSource(3)), m, 300, w)

	inj := fault.NewInjector().PanicAt(1, 50)
	addrs := startWorkers(t, 2, inj)
	s := NewSession(addrs, "fault-test", shard.Config{Cond: cond, Windows: windows})
	emitted := 0
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected a driver-side panic from the failed worker")
			}
			we, ok := r.(*fault.WorkerError)
			if !ok {
				t.Fatalf("recovered %T (%v), want *fault.WorkerError", r, r)
			}
			if we.Worker != 1 {
				t.Fatalf("failed worker %d, want 1", we.Worker)
			}
			if !strings.Contains(we.Error(), "injected") {
				t.Fatalf("cause %q does not name the injected fault", we.Error())
			}
		}()
		for _, e := range seq {
			s.Route(e)
		}
		s.FlushInterval(func(ts, delay stream.Time, nCross, nOn int64) { emitted++ }, nil)
	}()
	if emitted != 0 {
		t.Fatalf("%d records emitted from a failed interval; want 0 (all-or-nothing boundary)", emitted)
	}
	s.Close() // idempotent after teardown
}

// TestRouteAfterClosePanics: the driver-side lifecycle guard.
func TestRouteAfterClosePanics(t *testing.T) {
	leakcheck.Check(t)
	addrs := startWorkers(t, 1, nil)
	cond := join.EquiChain(2, 0)
	s := NewSession(addrs, "lifecycle-test", shard.Config{Cond: cond, Windows: []stream.Time{100, 100}})
	s.Route(&stream.Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
	s.FlushInterval(nil, nil)
	s.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Route after Close did not panic")
		}
		if !fault.Lifecycle(r) {
			t.Fatalf("panic %v is not a lifecycle panic", r)
		}
	}()
	s.Route(&stream.Tuple{TS: 2, Src: 0, Attrs: []float64{1}})
}

// TestRejoinSignatureMismatch: a daemon pins the first session's
// deployment signature; a rejoin with a different one is refused and the
// driver surfaces fault.ErrRestoreMismatch.
func TestRejoinSignatureMismatch(t *testing.T) {
	leakcheck.Check(t)
	addrs := startWorkers(t, 1, nil)
	cond := func() *join.Condition { return join.EquiChain(2, 0) }
	windows := []stream.Time{100, 100}

	s1 := NewSession(addrs, "deployment-A", shard.Config{Cond: cond(), Windows: windows})
	s1.Route(&stream.Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
	s1.FlushInterval(nil, nil)
	s1.Close()

	s2 := NewSession(addrs, "deployment-B", shard.Config{Cond: cond(), Windows: windows})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the mismatched rejoin to panic")
		}
		we, ok := r.(*fault.WorkerError)
		if !ok {
			t.Fatalf("recovered %T, want *fault.WorkerError", r)
		}
		if !errors.Is(we, fault.ErrRestoreMismatch) {
			t.Fatalf("cause %v does not wrap fault.ErrRestoreMismatch", we)
		}
	}()
	s2.Route(&stream.Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
}

// TestHostileHelloExpressionRefused: a hello whose generic predicate shares
// operands — 40 nodes standing for a 2³⁸-leaf tree, which used to hang the
// daemon in Condition() — is answered with an error ack at once, and the
// daemon keeps serving.
func TestHostileHelloExpressionRefused(t *testing.T) {
	leakcheck.Check(t)
	addrs := startWorkers(t, 1, nil)
	nodes := []join.WireExprNode{{Kind: 0, X: -1, Y: -1}} // s0.a0
	for i := 1; i < 39; i++ {
		nodes = append(nodes, join.WireExprNode{Kind: 2, X: i - 1, Y: i - 1}) // Add(i−1, i−1)
	}
	nodes = append(nodes, join.WireExprNode{Kind: 10, X: 38, Y: 38}) // Lt(38, 38)

	c, err := stdnet.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	hello := HelloMsg{Sig: "hostile", N: 1, Windows: []stream.Time{100, 100},
		Cond: join.WireCondition{M: 2, Generics: [][]join.WireExprNode{nodes}}}
	if err := writeGob(newFrameWriter(c), ftHello, hello); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := newFrameReader(c).next()
	if err != nil || ft != ftHelloAck {
		t.Fatalf("reading the ack: frame type %d, %v", ft, err)
	}
	var ack HelloAck
	if err := readGob(payload, &ack); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ack.Err, "operand twice") {
		t.Fatalf("ack %+v, want the shared-operand error", ack)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the daemon took %v to refuse the hello", d)
	}
	c.Close()

	s := NewSession(addrs, "deployment-A", shard.Config{Cond: join.EquiChain(2, 0), Windows: []stream.Time{100, 100}})
	s.Route(&stream.Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
	s.FlushInterval(nil, nil)
	s.Close()
}

// TestRejoinSameSignatureAccepted: the legitimate rejoin path — same
// signature, fresh session — is accepted after the previous session ends.
func TestRejoinSameSignatureAccepted(t *testing.T) {
	leakcheck.Check(t)
	addrs := startWorkers(t, 1, nil)
	cond := func() *join.Condition { return join.EquiChain(2, 0) }
	windows := []stream.Time{100, 100}
	for i := 0; i < 2; i++ {
		s := NewSession(addrs, "deployment-A", shard.Config{Cond: cond(), Windows: windows})
		s.Route(&stream.Tuple{TS: stream.Time(1 + i), Src: 0, Attrs: []float64{1}})
		s.FlushInterval(nil, nil)
		s.Close()
	}
}

// TestHeldWindowsMatchWorkerScope: the driver-retained windows used for
// checkpoints stay within the worker's in-scope set (sorted canonical
// order), even with out-of-order arrivals.
func TestStateCanonicalOrder(t *testing.T) {
	leakcheck.Check(t)
	addrs := startWorkers(t, 2, nil)
	cond := join.EquiChain(2, 0)
	w := stream.Time(300)
	s := NewSession(addrs, "order-test", shard.Config{Cond: cond, Windows: []stream.Time{w, w}})
	seq := difftest.GenSeq(rand.New(rand.NewSource(11)), 2, 200, w)
	for _, e := range seq {
		s.Route(e)
	}
	s.FlushInterval(nil, nil)
	st := s.State(fault.NewTupleTable())
	s.Close()
	for i, ids := range st.Windows {
		if !sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] }) {
			// IDs are interned in first-seen order of the (TS, Seq) sort, so
			// a sorted capture yields ascending IDs per stream.
			t.Fatalf("stream %d window IDs not canonical: %v", i, ids)
		}
	}
}
