package main

import (
	"bytes"
	stdnet "net"
	"testing"

	qdhj "repro"
	"repro/internal/adapt"
	"repro/internal/exp"
	"repro/internal/feedback"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/loopback"
	qnet "repro/internal/net"
	"repro/internal/oracle"
	"repro/internal/stream"
)

// TestX2QueryMatchesClosure: -query x2 is gen.SoccerCondition — two bands
// the planner probes as one grid, plus the circle as a WhereExpr residual —
// and must produce what the opaque closure it replaced produced, on a
// qdhjgen -dataset x2 CSV round trip: the same true results and, through
// the model pipeline, the same produced count and average K.
func TestX2QueryMatchesClosure(t *testing.T) {
	var csv bytes.Buffer
	if err := gen.Soccer(gen.SoccerConfig{Duration: 30 * stream.Second, Seed: 7}).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	ds, err := gen.ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	closure := join.Cross(2).Where([]int{0, 1}, func(a []*stream.Tuple) bool {
		dx := a[0].Attr(1) - a[1].Attr(1)
		dy := a[0].Attr(2) - a[1].Attr(2)
		return dx*dx+dy*dy < 25
	})
	acfg := adapt.Config{Gamma: 0.95, P: 10 * stream.Second, L: stream.Second}
	run := func(cond *join.Condition) exp.Summary {
		d := *ds
		d.Cond = cond
		truth := oracle.TrueResults(cond, d.Windows, d.Arrivals)
		return exp.Run(&exp.Dataset{Dataset: &d, Truth: truth}, acfg, feedback.ModelPolicy())
	}
	want, got := run(closure), run(queryFor("x2", ds.M))
	if want.TrueTotal == 0 || want.Produced == 0 {
		t.Fatalf("degenerate feed: %d true, %d produced", want.TrueTotal, want.Produced)
	}
	if got.TrueTotal != want.TrueTotal || got.Produced != want.Produced || got.AvgK != want.AvgK {
		t.Fatalf("-query x2 read %d of %d (avg K %v), the closure %d of %d (avg K %v)",
			got.Produced, got.TrueTotal, got.AvgK, want.Produced, want.TrueTotal, want.AvgK)
	}
}

// TestResolvePlanSpec pins which plan a planned run deploys.
func TestResolvePlanSpec(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		workers int
		replan  bool
		want    string
	}{
		{"", 0, false, "auto"},
		{"", 0, true, "flat"},
		{"tree", 0, false, "tree"},
		{"auto", 0, false, "auto"},
		// Workers run flat shapes: auto must not plan a stage-wise tree.
		{"", 2, false, "shard:2"},
		{"auto", 2, false, "shard:2"},
		{" auto:4", 2, false, "shard:2"},
		{"shard:2", 2, false, "shard:2"},
		{"flat", 2, false, "flat"},
	} {
		if got := resolvePlanSpec(tc.spec, tc.workers, tc.replan); got != tc.want {
			t.Errorf("resolvePlanSpec(%q, %d, %v) = %q, want %q", tc.spec, tc.workers, tc.replan, got, tc.want)
		}
	}
}

// TestWorkersAutoPlanDeploys: `-workers a,b -shards 2 -plan auto` used to
// panic at construction — on x4 because auto planned a stage-wise tree, on
// x2 because the query carried an opaque Where closure. Both now deploy on
// two loopback workers and run a short feed.
func TestWorkersAutoPlanDeploys(t *testing.T) {
	feeds := map[string]*gen.Dataset{
		"x2": gen.Soccer(gen.SoccerConfig{Duration: 5 * stream.Second, Seed: 3}),
		"x4": gen.Synthetic4(gen.SynthConfig{Duration: 5 * stream.Second, Seed: 3}),
	}
	for _, q := range []string{"x2", "x4"} {
		t.Run(q, func(t *testing.T) {
			addrs := loopback.Listen(t, 2, func(_ int, l stdnet.Listener) { _ = qnet.Serve(l, qnet.ServeConfig{}) })
			ds := feeds[q]
			cond := queryFor(q, ds.M)
			p, err := qdhj.ParsePlan(resolvePlanSpec("auto", len(addrs), false), cond, ds.Windows, 2)
			if err != nil {
				t.Fatal(err)
			}
			j := qdhj.NewJoin(cond, ds.Windows,
				qdhj.Options{Gamma: 0.95, Period: stream.Second, Interval: 200 * stream.Millisecond},
				qdhj.WithPlan(p), qdhj.WithRemoteWorkers(addrs...))
			for _, e := range ds.Arrivals.Clone() {
				j.Push(e)
			}
			j.Close()
			if err := j.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
