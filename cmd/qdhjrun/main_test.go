package main

// Pins the documented typed error for invalid flag combinations and for
// out-of-range numbers, which used to be clamped or defaulted silently.

import (
	"cmp"
	"errors"
	"testing"

	"repro/internal/plan"
)

// defaults fills -gamma/-P/-L, and -strategy when unset, with their
// command-line defaults, so a row only states the flags it is about.
func defaults(f runFlags) runFlags {
	f.gamma, f.P, f.L = 0.95, 60, 1
	f.strategy = cmp.Or(f.strategy, "noneqsel")
	return f
}

// TestFlagConflicts iterates the option matrix under its flag names: every
// refused pair exits with the library's reason. Then the rules only the
// command line has, the worker-count rule, and combinations that must run.
func TestFlagConflicts(t *testing.T) {
	two := []string{"127.0.0.1:7101", "127.0.0.1:7102"}
	// on sets the flags that turn on one feature. -shards is the plan's
	// budget here, so no flag turns on WithShards' own shard count.
	on := map[plan.Feature]func(*runFlags){
		plan.Restored:    func(f *runFlags) { f.restore = "snap.bin" },
		plan.Remote:      func(f *runFlags) { f.workers = two },
		plan.Planned:     func(f *runFlags) { f.planSpec = "shard:2" },
		plan.TreePlanned: func(f *runFlags) { f.planSpec = "tree" },
		plan.Injected:    func(f *runFlags) { f.inject = "panic@shard0:tuple10" },
		plan.Replanned:   func(f *runFlags) { f.replan = true },
	}
	for _, r := range plan.Matrix {
		if on[r.A] == nil || on[r.B] == nil {
			continue
		}
		f := defaults(runFlags{})
		on[r.A](&f)
		on[r.B](&f)
		want := conflict(r.Message(plan.CLI)).Error()
		if err := flagConflict(f); err == nil || err.Error() != want || !errors.Is(err, errFlagConflict) {
			t.Errorf("%s × %s: got %v, want %q", r.A.Name(plan.CLI), r.B.Name(plan.CLI), err, want)
		}
	}

	bad := []struct {
		name string
		f    runFlags
	}{
		{"queries+inject", runFlags{queries: "q.spec", inject: "panic@shard0:tuple10"}},
		{"queries+workers", runFlags{queries: "q.spec", workers: two}},
		{"queries+replan", runFlags{queries: "q.spec", replan: true}},
		{"queries+plan", runFlags{queries: "q.spec", planSpec: "tree"}},
		{"explain-live+restore", runFlags{explainLive: true, restore: "snap.bin"}},
		{"workers+plan tree-shard", runFlags{workers: two, planSpec: "tree-shard:2"}},
		{"workers+plan shape", runFlags{workers: two, planSpec: " ((0 1)x2 2)"}},
		{"framebatch alone", runFlags{frameBatch: 64}},
		{"k negative", runFlags{policy: "static", k: -1}},
		{"shards negative", runFlags{shards: -2}},
		{"framebatch negative", runFlags{workers: two, frameBatch: -1}},
		{"strategy EqSel", runFlags{strategy: "EqSel"}},
		{"strategy typo", runFlags{strategy: "noneqsl"}},
		// -shards under a plan that does not read it.
		{"plan shard:2+shards 4", runFlags{planSpec: "shard:2", shards: 4}},
		{"plan tree-shard:2+shards 4", runFlags{planSpec: "tree-shard:2", shards: 4}},
		{"plan flat+shards 4", runFlags{planSpec: "flat", shards: 4}},
		{"plan tree+shards 4", runFlags{planSpec: "tree", shards: 4}},
		{"plan shape+shards 4", runFlags{planSpec: "((0 1)x2 2)", shards: 4}},
		{"plan shard:x+shards 4", runFlags{planSpec: "shard:x", shards: 4}},
	}
	for i := range bad {
		bad[i].f = defaults(bad[i].f)
	}
	// The -gamma/-P/-L rows state all three themselves.
	bad = append(bad, []struct {
		name string
		f    runFlags
	}{
		{"gamma above 1", runFlags{gamma: 1.5, P: 60, L: 1}},
		{"gamma zero", runFlags{gamma: 0, P: 60, L: 1}},
		{"P negative", runFlags{gamma: 0.95, P: -3, L: 1}},
		{"L zero", runFlags{gamma: 0.95, P: 60, L: 0}},
		{"L above P", runFlags{gamma: 0.95, P: 10, L: 11}},
	}...)
	for _, tc := range bad {
		err := flagConflict(tc.f)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !errors.Is(err, errFlagConflict) {
			t.Errorf("%s: error %v does not wrap errFlagConflict", tc.name, err)
		}
	}

	// A shard count must match the worker addresses, whichever flag set
	// it; a bare shard spec deploys its default of 4.
	for _, tc := range []struct {
		name string
		f    runFlags
		want *plan.Refusal
	}{
		{"-shards 4", runFlags{workers: two, shards: 4}, plan.Sharded.Refuse(4, 2)},
		{"-shards 1", runFlags{workers: two, shards: 1}, plan.Sharded.Refuse(1, 2)},
		{"-plan shard:4", runFlags{workers: two, planSpec: "shard:4"}, plan.Planned.Refuse(4, 2)},
		{"-plan shard", runFlags{workers: two, planSpec: "shard"}, plan.Planned.Refuse(4, 2)},
	} {
		want := conflict(tc.want.Message(plan.CLI)).Error()
		if err := flagConflict(defaults(tc.f)); err == nil || err.Error() != want || !errors.Is(err, errFlagConflict) {
			t.Errorf("%s with two workers: got %v, want %q", tc.name, err, want)
		}
	}

	good := []struct {
		name string
		f    runFlags
	}{
		{"bare", runFlags{}},
		{"strategy eqsel", runFlags{strategy: "eqsel"}},
		{"queries alone", runFlags{queries: "q.spec"}},
		{"plan tree", runFlags{planSpec: "tree", policy: "model"}},
		{"plan tree+static", runFlags{planSpec: "tree", policy: "static", k: 2}},
		{"plan shard:4+shards 4", runFlags{planSpec: "shard:4", shards: 4}},
		{"plan tree-shard:4+shards 4", runFlags{planSpec: " tree-shard:4", shards: 4}},
		{"plan shard+shards 4", runFlags{planSpec: "shard", shards: 4}},
		{"plan tree-shard+shards 4", runFlags{planSpec: "tree-shard", shards: 4}},
		{"plan auto+shards 4", runFlags{planSpec: "auto", shards: 4}},
		{"plan+inject", runFlags{planSpec: "shard:2", inject: "panic@shard1:tuple5000"}},
		{"restore+inject", runFlags{planSpec: "shard:2", restore: "snap.bin", inject: "panic@shard1:tuple5000"}},
		{"workers alone", runFlags{workers: two}},
		{"workers+matching shards", runFlags{workers: two, shards: 2}},
		{"workers+plan shard", runFlags{workers: two, planSpec: "shard:2"}},
		{"workers+plan shard, budget 2", runFlags{workers: two, planSpec: "shard", shards: 2}},
		{"workers+plan shard:1", runFlags{workers: two, planSpec: "shard:1"}},
		{"workers+plan flat", runFlags{workers: two, planSpec: "flat"}},
		{"workers+plan auto", runFlags{workers: two, planSpec: "auto"}},
		{"workers+framebatch", runFlags{workers: two, frameBatch: 64}},
		{"workers+checkpoint", runFlags{workers: two, ckptFile: "snap.bin"}},
		{"workers+restore", runFlags{workers: two, restore: "snap.bin"}},
		{"replan alone", runFlags{replan: true}},
		{"replan+inject", runFlags{replan: true, inject: "panic@shard0:tuple10"}},
		{"replan+checkpoint", runFlags{replan: true, ckptFile: "snap.bin"}},
	}
	for _, tc := range good {
		if err := flagConflict(defaults(tc.f)); err != nil {
			t.Errorf("%s: unexpected conflict: %v", tc.name, err)
		}
	}
}

func TestSplitAddrs(t *testing.T) {
	got := splitAddrs(" a:1, b:2 ,,c:3 ")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if splitAddrs("") != nil {
		t.Fatal("empty list should be nil")
	}
}
