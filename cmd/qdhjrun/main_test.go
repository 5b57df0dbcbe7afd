package main

// Pins the documented typed error for invalid flag combinations —
// most importantly -queries × -inject, which used to compose silently
// while the armed faults never fired (fault injection is not wired
// through the shared-window multi-query engine) — and for out-of-range
// numbers, which used to be clamped or defaulted silently.

import (
	"errors"
	"testing"
)

// defaults fills -gamma/-P/-L with their command-line defaults, so a row
// only states the flags it is about.
func defaults(f runFlags) runFlags {
	f.gamma, f.P, f.L = 0.95, 60, 1
	return f
}

func TestFlagConflicts(t *testing.T) {
	two := []string{"127.0.0.1:7101", "127.0.0.1:7102"}
	bad := []struct {
		name string
		f    runFlags
	}{
		{"queries+inject", runFlags{queries: "q.spec", inject: "panic@shard0:tuple10"}},
		{"queries+workers", runFlags{queries: "q.spec", workers: two}},
		{"queries+replan", runFlags{queries: "q.spec", replan: true}},
		{"queries+plan", runFlags{queries: "q.spec", planSpec: "tree"}},
		{"replan+restore", runFlags{replan: true, restore: "snap.bin"}},
		{"workers+inject", runFlags{workers: two, inject: "panic@shard0:tuple10"}},
		{"workers+replan", runFlags{workers: two, replan: true}},
		{"workers+shards mismatch", runFlags{workers: two, shards: 4}},
		{"workers+plan tree", runFlags{workers: two, planSpec: "tree"}},
		{"workers+plan tree-shard", runFlags{workers: two, planSpec: "tree-shard:2"}},
		{"workers+plan shape", runFlags{workers: two, planSpec: " ((0 1)x2 2)"}},
		{"framebatch alone", runFlags{frameBatch: 64}},
		{"k negative", runFlags{policy: "static", k: -1}},
		{"shards negative", runFlags{shards: -2}},
		{"framebatch negative", runFlags{workers: two, frameBatch: -1}},
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

	good := []struct {
		name string
		f    runFlags
	}{
		{"bare", runFlags{}},
		{"queries alone", runFlags{queries: "q.spec"}},
		{"plan tree", runFlags{planSpec: "tree", policy: "model"}},
		{"plan tree+static", runFlags{planSpec: "tree", policy: "static", k: 2}},
		{"plan+inject", runFlags{planSpec: "shard:2", inject: "panic@shard1:tuple5000"}},
		{"workers alone", runFlags{workers: two}},
		{"workers+matching shards", runFlags{workers: two, shards: 2}},
		{"workers+plan shard", runFlags{workers: two, planSpec: "shard:2"}},
		{"workers+framebatch", runFlags{workers: two, frameBatch: 64}},
		{"workers+checkpoint", runFlags{workers: two, ckptFile: "snap.bin"}},
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
