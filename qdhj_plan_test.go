package qdhj

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/leakcheck"
)

func star4() *Condition { return Star(4, []int{0, 1, 2}, []int{0, 0, 0}) }

func windows4() []Time { return []Time{Second, Second, Second, Second} }

// TestAutoPlanStarExplain: the public acceptance surface — a star-shaped
// 4-way condition auto-plans to stage-wise sharding with no broadcast route
// in the explained plan.
func TestAutoPlanStarExplain(t *testing.T) {
	leakcheck.Check(t)
	p := AutoPlan(star4(), windows4(), PlanHints{Shards: 4})
	out := Explain(p)
	if strings.Contains(out, "broadcast") {
		t.Fatalf("explained plan contains a broadcast route:\n%s", out)
	}
	if !strings.Contains(out, "shard ×4") || !strings.Contains(out, "stage") {
		t.Fatalf("explained plan is not stage-wise sharded:\n%s", out)
	}
	t.Log("\n" + out)
}

// TestJoinTreePlanAdaptive: an adaptive tree-shaped Join exposes per-stage
// Ks and a sane snapshot through the flat Join API.
func TestJoinTreePlanAdaptive(t *testing.T) {
	leakcheck.Check(t)
	in := gen.SparseEqui3(4000, 11, 300, [3]Time{150, 150, 2500})
	cond := EquiChain(3, 0)
	p, err := ParsePlan("tree-shard:2", cond, []Time{2 * Second, 2 * Second, 2 * Second}, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJoin(cond, []Time{2 * Second, 2 * Second, 2 * Second},
		Options{Gamma: 0.9, Period: 10 * Second, Interval: Second}, WithPlan(p))
	pushAll(j, in)
	if j.Results() == 0 {
		t.Fatal("no results")
	}
	if j.Adaptations() == 0 {
		t.Fatal("no adaptation steps")
	}
	if n := len(j.CurrentKs()); n != 2 {
		t.Fatalf("CurrentKs has %d scopes, want one per stage (2)", n)
	}
	if j.CurrentK() < j.CurrentKs()[0] {
		t.Error("CurrentK must be the max over stage Ks")
	}
	snap := j.Snapshot()
	if len(snap.Streams) != 3 || snap.GlobalT == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Streams[2].MaxDelayRecent <= snap.Streams[0].MaxDelayRecent {
		t.Error("stream 2 is the heavily delayed one; snapshot must show it")
	}
}

// TestSnapshotDuringShardedRun: Snapshot mid-run on a sharded or remote
// join reads the Statistics Manager only after the async feeder caught up
// — no data race with the feeder goroutine (under -race), and the same
// statistics a flat join reports after the same pushes.
func TestSnapshotDuringShardedRun(t *testing.T) {
	leakcheck.Check(t)
	ds := gen.Synthetic3(gen.SynthConfig{Duration: 15 * Second, Seed: 42})
	snaps := func(opts ...JoinOption) []StatsSnapshot {
		j := NewJoin(ds.Cond, ds.Windows, Options{Gamma: 0.95, Period: 5 * Second}, opts...)
		var out []StatsSnapshot
		for i, e := range ds.Arrivals.Clone() {
			j.Push(e)
			if i%100 == 99 {
				s := j.Snapshot()
				s.Edges = nil // sharded result counts lag until the next merge
				out = append(out, s)
			}
		}
		j.Close()
		return out
	}
	want := snaps()
	for name, opts := range map[string][]JoinOption{
		"shards": {WithShards(2)},
		"remote": {WithRemoteWorkers(netWorkers(t, 2)...)},
	} {
		if got := snaps(opts...); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: mid-run snapshots differ from the flat join's", name)
		}
	}
}

// TestSnapshotStats: the read-only snapshot reports coherent measured
// statistics — plausible rates and clocks per stream, and per-edge
// selectivity estimates near the workload's true key density.
func TestSnapshotStats(t *testing.T) {
	leakcheck.Check(t)
	in := gen.SparseEqui3(1500, 3, 100, [3]Time{500, 500, 500})
	j := NewJoin(EquiChain(3, 0), []Time{Second, Second, Second}, Options{})
	pushAll(j, in)
	snap := j.Snapshot()
	if len(snap.Streams) != 3 {
		t.Fatalf("snapshot has %d streams, want 3", len(snap.Streams))
	}
	for i, s := range snap.Streams {
		if s.Rate < 0.05 || s.Rate > 0.2 {
			t.Fatalf("stream %d rate %.4f tuples/ms, true value 0.1", i, s.Rate)
		}
		if s.LocalT <= 0 || s.LocalT > snap.GlobalT {
			t.Fatalf("stream %d clock %v outside (0, GlobalT=%v]", i, s.LocalT, snap.GlobalT)
		}
	}
	if snap.MaxDelayAllTime <= 0 || snap.MaxDelayAllTime > 500 {
		t.Fatalf("max delay %v, workload injects up to 500", snap.MaxDelayAllTime)
	}
	if len(snap.Edges) != 2 {
		t.Fatalf("equi chain over 3 streams has 2 edges, snapshot has %d", len(snap.Edges))
	}
	for _, e := range snap.Edges {
		if e.Selectivity < 0.002 || e.Selectivity > 0.05 {
			t.Fatalf("edge (%d,%d) selectivity %.5f, true key density 0.01", e.Left, e.Right, e.Selectivity)
		}
	}
}

// TestWithPlanMismatchPanics: a plan built for a different condition value
// must be rejected, not silently miscompiled.
func TestWithPlanMismatchPanics(t *testing.T) {
	leakcheck.Check(t)
	p := AutoPlan(EquiChain(2, 0), []Time{Second, Second}, PlanHints{})
	defer func() {
		if recover() == nil {
			t.Fatal("WithPlan with a foreign condition must panic")
		}
	}()
	NewJoin(EquiChain(2, 0), []Time{Second, Second}, Options{}, WithPlan(p))
}
