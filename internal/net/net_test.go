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

	"repro/internal/core"
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

// dial opens a Session on addrs that test cleanup closes, on every exit
// path: a Session that panics — a refused ack, a decode error — would
// otherwise leave its connections open, and startWorkers' cleanup would
// wait on Serve forever instead of the test failing. Close is idempotent,
// so tests that close the Session themselves keep doing so.
func dial(t *testing.T, addrs []string, sig string, cfg shard.Config) *Session {
	t.Helper()
	s := NewSession(addrs, sig, cfg)
	t.Cleanup(s.Close)
	return s
}

// session executes seq through a Session against n in-process daemons,
// flushing every flushEvery tuples, and returns the merged streams — what
// difftest.Operator captures of a single operator.
func session(t *testing.T, cond *join.Condition, windows []stream.Time, seq []*stream.Tuple, n, flushEvery, frameBatch int) *difftest.Run {
	t.Helper()
	got := difftest.NewRun()
	s := dial(t, startWorkers(t, n, nil), "net-test", shard.Config{
		Cond: cond, Windows: windows, Materialize: true,
		BatchSize:    frameBatch,
		OnOutOfOrder: got.OnOutOfOrder,
	})
	for i, e := range seq {
		s.Route(e)
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			s.FlushInterval(got.Record, got.Emit)
		}
	}
	s.FlushInterval(got.Record, got.Emit)
	s.Close()
	return got
}

// TestNetworkedMatchesSingleOperator is the tentpole differential: for
// every partition mode, worker counts 1/2/4 and frame batches from
// per-tuple to 64, the networked runtime's merged productivity records,
// out-of-order charges and result multisets are bit-for-bit a single
// operator's.
func TestNetworkedMatchesSingleOperator(t *testing.T) {
	leakcheck.Check(t)
	for _, m := range []int{2, 3} {
		for name, mk := range difftest.Conds(m, true) {
			for _, tc := range []struct{ workers, batch int }{
				{1, 7}, {2, 1}, {2, 64}, {4, 1}, {4, 64},
			} {
				t.Run(fmt.Sprintf("m=%d/%s/w=%d/b=%d", m, name, tc.workers, tc.batch), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(101*m + 7*tc.workers + tc.batch)))
					w := stream.Time(300)
					seq := difftest.GenSeq(rng, m, 600, w)
					windows := difftest.Windows(m, w)
					difftest.Compare(t, "", difftest.Operator(mk(), windows, seq),
						session(t, mk(), windows, seq, tc.workers, 97, tc.batch))
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

	// Reference: the single operator over the whole sequence. It never
	// flushes, so its records split into intervals differently from the
	// captured runs': compare the result multisets and the records' total
	// result count.
	want := difftest.Operator(cond(), windows, seq)
	on := func(r *difftest.Run) (n int64) {
		for _, rec := range r.Records {
			n += rec.NOn
		}
		return n
	}
	wantOn := on(want)
	want.Records, want.OutOfOrder = nil, nil

	networked := func() core.Runtime {
		return dial(t, startWorkers(t, 2, nil), "cross-test", shard.Config{Cond: cond(), Windows: windows, Materialize: true})
	}
	inProcess := func() core.Runtime {
		return shard.New(shard.Config{N: 2, Cond: cond(), Windows: windows, Materialize: true})
	}
	// Run the first half on one runtime, capture, restore into a fresh
	// runtime of the other kind, run the second half there.
	for name, pair := range map[string][2]func() core.Runtime{
		"networked→in-process": {networked, inProcess},
		"in-process→networked": {inProcess, networked},
	} {
		got := difftest.NewRun()
		first := pair[0]()
		for _, e := range seq[:half] {
			first.Route(e)
		}
		first.FlushInterval(got.Record, got.Emit)
		tt := fault.NewTupleTable()
		st := first.State(tt)
		first.Close()

		second := pair[1]()
		second.Restore(st, fault.NewTupleArena(tt.Recs))
		for _, e := range seq[half:] {
			second.Route(e)
		}
		second.FlushInterval(got.Record, got.Emit)
		second.Close()
		if n := on(got); n != wantOn {
			t.Fatalf("%s: result count after cross-restore: got %d, want %d", name, n, wantOn)
		}
		difftest.Compare(t, name, want, got)
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
	s := dial(t, addrs, "fault-test", shard.Config{Cond: cond, Windows: windows})
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
	s := dial(t, addrs, "lifecycle-test", shard.Config{Cond: cond, Windows: []stream.Time{100, 100}})
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

	s1 := dial(t, addrs, "deployment-A", shard.Config{Cond: cond(), Windows: windows})
	s1.Route(&stream.Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
	s1.FlushInterval(nil, nil)
	s1.Close()

	s2 := dial(t, addrs, "deployment-B", shard.Config{Cond: cond(), Windows: windows})
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

	s := dial(t, addrs, "deployment-A", shard.Config{Cond: join.EquiChain(2, 0), Windows: []stream.Time{100, 100}})
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
		s := dial(t, addrs, "deployment-A", shard.Config{Cond: cond(), Windows: windows})
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
	s := dial(t, addrs, "order-test", shard.Config{Cond: cond, Windows: []stream.Time{w, w}})
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
