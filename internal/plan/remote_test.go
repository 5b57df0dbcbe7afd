package plan

// Networked-runtime differentials at the executor seam: the same plans the
// in-process sharded runtime executes, deployed onto localhost qdhjd-style
// worker daemons via ExecConfig.Remote, must reproduce the flat reference
// bit-for-bit — result multiset, result count, and the full adaptation
// trajectory — at 2 and 4 workers, on equi/band/generic mixes, healthy and
// with a worker killed mid-stream and restored from the driver-side
// checkpoint. CI runs these under -race.

import (
	"fmt"
	stdnet "net"
	"testing"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/leakcheck"
	qnet "repro/internal/net"
	"repro/internal/stream"
)

// startDaemons spins up n in-process worker daemons on loopback listeners
// (the same Serve loop cmd/qdhjd runs) and returns their addresses.
// Injectors arm worker-side faults: per-daemon probe counts, exactly like
// qdhjd -inject.
func startDaemons(t *testing.T, n int, inj map[int]*fault.Injector) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		done := make(chan struct{})
		cfg := qnet.ServeConfig{Inject: inj[i]}
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

// remoteConds is the condition matrix: equi, band, and a generic residual
// (expression form — remote workers need a wireable condition).
func remoteConds() []struct {
	name string
	m    int
	mk   func() *join.Condition
} {
	return []struct {
		name string
		m    int
		mk   func() *join.Condition
	}{
		{"equichain3", 3, func() *join.Condition { return join.EquiChain(3, 0) }},
		{"band-equi-mix4", 4, func() *join.Condition {
			return join.Cross(4).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 8).Equi(2, 0, 3, 0)
		}},
		{"generic-mix3", 3, func() *join.Condition {
			return join.EquiChain(3, 0).WhereExpr(
				join.Le(join.Attr(0, 1), join.Add(join.Attr(2, 1), join.ConstOf(40))))
		}},
	}
}

// TestRemoteAdaptiveDifferential runs the full feedback pipeline — K
// adaptation at interval boundaries, barriers delivered in-band — against
// networked workers and requires the flat in-process reference exactly.
func TestRemoteAdaptiveDifferential(t *testing.T) {
	for _, tc := range remoteConds() {
		in := difftest.MixWorkload(tc.m, 1200, 23, 14)
		w := make([]stream.Time, tc.m)
		for i := range w {
			w[i] = 700
		}
		want := runHealthy(FlatGraph(tc.mk(), w), in.Clone())
		if want.results == 0 || len(want.ks) < 4 {
			t.Fatalf("%s: degenerate reference: %d results, %d adaptations",
				tc.name, want.results, len(want.ks))
		}
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				leakcheck.Check(t)
				addrs := startDaemons(t, workers, nil)
				tr := supTrace{set: map[string]int{}}
				cfg := tr.cfg()
				cfg.Remote = addrs
				ex := Build(ShardedFlat(tc.mk(), w, workers), cfg)
				for _, e := range in.Clone() {
					ex.Push(e)
				}
				ex.Finish()
				tr.results = ex.Results()
				diffSupTraces(t, tc.name, want, tr)
			})
		}
	}
}

// TestRemoteSupervisedWorkerKill arms a worker-side injected panic on
// daemon 1 (the fault fires inside the remote process, mid-stream), lets
// the supervised driver observe the typed worker failure at the next
// barrier, reconnect, restore the shard's windows from the driver-side
// checkpoint, and replay — and requires the recovered run to match the
// healthy flat reference exactly, K trajectory included.
func TestRemoteSupervisedWorkerKill(t *testing.T) {
	leakcheck.Check(t)
	mk := func() *join.Condition { return join.EquiChain(3, 0) }
	in := difftest.MixWorkload(3, 1200, 23, 14)
	w := []stream.Time{700, 700, 700}
	want := runHealthy(FlatGraph(mk(), w), in.Clone())

	inj := fault.NewInjector()
	inj.PanicAt(1, 400) // worker-side: fires at daemon 1's 400th probe
	addrs := startDaemons(t, 2, map[int]*fault.Injector{1: inj})

	tr := supTrace{set: map[string]int{}}
	cfg := tr.cfg()
	cfg.Remote = addrs
	// No driver-side Inject: the fault lives in the worker process. The
	// supervisor only supplies backoff and checkpoint cadence.
	s := NewSupervised(ShardedFlat(mk(), w, 2), cfg, SuperviseConfig{
		Backoff: testBackoff(3), CheckpointEvery: 1})
	for _, e := range in.Clone() {
		s.Push(e)
	}
	s.Finish()
	if err := s.Err(); err != nil {
		t.Fatalf("supervised networked run went terminal: %v", err)
	}
	if s.Restarts() < 1 {
		t.Fatal("worker-side injector never fired")
	}
	tr.results = s.Results()
	diffSupTraces(t, "remote-kill", want, tr)
}

// TestRemoteConfigValidation pins the construction-time contract: remote
// deployment refuses tree shapes, a worker count that disagrees with the
// shard count, and conditions that cannot cross a process boundary.
func TestRemoteConfigValidation(t *testing.T) {
	w := []stream.Time{700, 700, 700}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("tree shape", func() {
		g, _ := ParseSpec("tree", join.EquiChain(3, 0), w, 2)
		Build(g, ExecConfig{Adapt: supAdapt, Remote: []string{"a:1", "b:2"}})
	})
	mustPanic("shard/worker mismatch", func() {
		Build(ShardedFlat(join.EquiChain(3, 0), w, 4),
			ExecConfig{Adapt: supAdapt, Remote: []string{"a:1", "b:2"}})
	})
	mustPanic("non-wireable condition", func() {
		cond := join.EquiChain(3, 0).Where([]int{0, 2}, func(a []*stream.Tuple) bool {
			return a[0].Attr(1) <= a[2].Attr(1)
		})
		Build(ShardedFlat(cond, w, 2),
			ExecConfig{Adapt: supAdapt, Remote: []string{"a:1", "b:2"}})
	})
}
