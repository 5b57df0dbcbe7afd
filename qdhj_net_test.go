package qdhj

// Public-API networked differentials: WithRemoteWorkers must behave as
// WithShards across a process boundary — result multiset, result count and
// K trajectory bit-for-bit equal to the flat in-process reference at 2 and
// 4 workers, at every frame-batch setting, and across a worker-side fault
// under WithSupervision. The workers here are the same Serve loop
// cmd/qdhjd runs, listening on loopback.

import (
	stdnet "net"
	"testing"

	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/leakcheck"
	qnet "repro/internal/net"
)

// startNetWorkers launches n worker daemons on loopback and returns their
// addresses. inj arms a worker-side injector on one daemon (nil for none).
func startNetWorkers(t *testing.T, n int, injAt int, inj *Injector) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		cfg := qnet.ServeConfig{}
		if inj != nil && i == injAt {
			cfg.Inject = inj
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = qnet.Serve(l, cfg)
		}()
		t.Cleanup(func() {
			l.Close()
			<-done
		})
	}
	return addrs
}

// netCond is an equi chain with a wireable generic residual — every
// predicate class the wire can carry.
func netCond() *Condition {
	return EquiChain(3, 0).WhereExpr(
		join.Le(join.Attr(0, 1), join.Add(join.Attr(2, 1), join.ConstOf(40))))
}

func runNetJoin(in []*Tuple, opts ...JoinOption) (*faultTrace, int64) {
	tr := newFaultTrace()
	j := NewJoin(netCond(), []Time{700, 700, 700},
		Options{Gamma: 0.9, Period: Second, Interval: 200 * Millisecond},
		append(tr.opts(), opts...)...)
	for _, e := range cloneBatch(in) {
		j.Push(e)
	}
	j.Close()
	return tr, j.Results()
}

func TestWithRemoteWorkersDifferential(t *testing.T) {
	in := difftest.MixWorkload(3, 1200, 27, 14)
	want, wantN := runNetJoin(in)
	if wantN == 0 || len(want.ks) < 4 {
		t.Fatalf("degenerate reference: %d results, %d adaptations", wantN, len(want.ks))
	}
	for _, workers := range []int{2, 4} {
		for _, batch := range []int{1, 128} {
			name := map[int]string{1: "per-tuple", 128: "batched"}[batch]
			t.Run(map[int]string{2: "w2", 4: "w4"}[workers]+"/"+name, func(t *testing.T) {
				leakcheck.Check(t)
				addrs := startNetWorkers(t, workers, -1, nil)
				got, gotN := runNetJoin(in,
					WithRemoteWorkers(addrs...), WithFrameBatch(batch))
				if gotN != wantN {
					t.Errorf("%d results, want %d", gotN, wantN)
				}
				diffFaultTraces(t, "remote", want, got)
			})
		}
	}
}

// TestWithRemoteWorkersSupervisedKill: a panic injected inside worker
// process 1 mid-stream surfaces at the next barrier, the supervised driver
// reconnects and restores that worker's windows from the driver-side
// checkpoint, and the recovered run matches the healthy flat reference
// exactly.
func TestWithRemoteWorkersSupervisedKill(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.MixWorkload(3, 1200, 27, 14)
	want, wantN := runNetJoin(in)

	inj := NewInjector()
	inj.PanicAt(1, 500)
	addrs := startNetWorkers(t, 2, 1, inj)

	tr := newFaultTrace()
	j := NewJoin(netCond(), []Time{700, 700, 700},
		Options{Gamma: 0.9, Period: Second, Interval: 200 * Millisecond},
		append(tr.opts(),
			WithRemoteWorkers(addrs...),
			WithSupervision(Supervision{Backoff: fastBackoff(3), CheckpointEvery: 1}))...)
	for _, e := range cloneBatch(in) {
		j.Push(e)
	}
	j.Close()
	if err := j.Err(); err != nil {
		t.Fatalf("supervised networked join went terminal: %v", err)
	}
	if j.Restarts() < 1 {
		t.Fatal("worker-side injector never fired")
	}
	if n := j.Results(); n != wantN {
		t.Errorf("%d results, want %d", n, wantN)
	}
	diffFaultTraces(t, "remote-kill", want, tr)
}
