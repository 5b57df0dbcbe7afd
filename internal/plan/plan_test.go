package plan

import (
	"repro/internal/leakcheck"
	"strings"
	"testing"

	"repro/internal/join"
	"repro/internal/stream"
)

func windows(m int) []stream.Time {
	w := make([]stream.Time, m)
	for i := range w {
		w[i] = 2 * stream.Second
	}
	return w
}

// TestAutoStarShardsEveryStage is the acceptance shape check: a star-shaped
// 4-way condition has no full key class, so with a shard budget the planner
// must emit stage-wise sharding — every stage Shard-wrapped on its own
// cross key, and NO broadcast route anywhere in the graph or its Explain
// rendering.
func TestAutoStarShardsEveryStage(t *testing.T) {
	leakcheck.Check(t)
	cond := join.Star(4, []int{0, 1, 2}, []int{0, 0, 0})
	g := Auto(cond, windows(4), Hints{Shards: 4})

	stages, shards, broadcasts := 0, 0, 0
	var walk func(Node)
	walk = func(n Node) {
		switch v := n.(type) {
		case Shard:
			shards++
			if v.Broadcast() {
				broadcasts++
			}
			walk(v.Child)
		case Stage:
			stages++
			walk(v.Left)
			walk(v.Right)
		case Flat:
			t.Error("auto plan fell back to the flat operator; want stage-wise sharding")
		}
	}
	walk(g.Root)
	if stages != 3 {
		t.Errorf("stages = %d, want 3", stages)
	}
	if shards != 3 {
		t.Errorf("shard nodes = %d, want one per stage", shards)
	}
	if broadcasts != 0 {
		t.Errorf("%d broadcast routes in the plan; stage-wise sharding must have none", broadcasts)
	}
	out := g.Explain()
	if strings.Contains(out, "broadcast") {
		t.Errorf("Explain mentions a broadcast route:\n%s", out)
	}
	for _, want := range []string{"shard ×4", "stage"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain misses %q:\n%s", want, out)
		}
	}
}

// TestAutoFullKeyPrefersShardedFlat: with a key class covering every stream
// the flat sharded operator wins (no intermediate materialization).
func TestAutoFullKeyPrefersShardedFlat(t *testing.T) {
	leakcheck.Check(t)
	g := Auto(join.EquiChain(3, 0), windows(3), Hints{Shards: 4})
	sh, ok := g.Root.(Shard)
	if !ok {
		t.Fatalf("root = %T, want Shard", g.Root)
	}
	if _, ok := sh.Child.(Flat); !ok {
		t.Fatalf("child = %T, want Flat", sh.Child)
	}
	if sh.Broadcast() {
		t.Error("full equi key must not broadcast")
	}
}

// TestAutoGenericOnlyFallsBackToBroadcast: with no key class at any
// granularity the broadcast flat shards remain the only option.
func TestAutoGenericOnlyFallsBackToBroadcast(t *testing.T) {
	leakcheck.Check(t)
	cond := join.Cross(2).Where([]int{0, 1}, func(a []*stream.Tuple) bool {
		return a[0].Attr(0) == a[1].Attr(0)
	})
	g := Auto(cond, windows(2), Hints{Shards: 4})
	sh, ok := g.Root.(Shard)
	if !ok {
		t.Fatalf("root = %T, want Shard", g.Root)
	}
	if !sh.Broadcast() {
		t.Error("generic-only condition must report its broadcast fallback")
	}
}

// TestAutoUnshardedDefaultsToFlat: without hints the classic operator wins.
func TestAutoUnshardedDefaultsToFlat(t *testing.T) {
	leakcheck.Check(t)
	g := Auto(join.EquiChain(3, 0), windows(3), Hints{})
	if _, ok := g.Root.(Flat); !ok {
		t.Fatalf("root = %T, want Flat", g.Root)
	}
}

// TestAutoLowSelectivityPicksTree: a low selectivity hint makes the
// intermediate materialization cheap, so the planner picks a tree (per-
// stage K regime). At σ = 1e-4 the chain's σ²-discounted deep partial is
// tiny, so the spine wins the shape race.
func TestAutoLowSelectivityPicksTree(t *testing.T) {
	leakcheck.Check(t)
	g := Auto(join.EquiChain(4, 0), windows(4), Hints{Selectivity: 1e-4})
	if _, ok := g.Root.(Stage); !ok {
		t.Fatalf("root = %T, want Stage", g.Root)
	}
	if !SpineShape(g) {
		t.Error("σ²-discounted chain partials undercut the balanced split; want the spine")
	}
}

// TestAutoBushyWhenSpineIntermediatesBlowUp: for an equichain with window
// cardinality n, the spine's 3-way partial (n³σ²) exceeds the bushy pair
// stages (2·n²σ) exactly when nσ > 1; with intermediates still inside the
// raw-window budget (σ ≤ 2/n) the planner must pick the balanced split.
func TestAutoBushyWhenSpineIntermediatesBlowUp(t *testing.T) {
	leakcheck.Check(t)
	g := Auto(join.EquiChain(4, 0), windows(4), Hints{Selectivity: 0.008})
	st, ok := g.Root.(Stage)
	if !ok {
		t.Fatalf("root = %T, want Stage", g.Root)
	}
	if _, ok := st.Left.(Stage); !ok {
		t.Errorf("expected a bushy split, got left=%T", st.Left)
	}
	if _, ok := st.Right.(Stage); !ok {
		t.Errorf("expected a bushy split, got right=%T", st.Right)
	}
}

// TestAutoStarNeverBushy: star spokes share no predicate, so only spines
// are valid shapes.
func TestAutoStarNeverBushy(t *testing.T) {
	leakcheck.Check(t)
	cond := join.Star(4, []int{0, 1, 2}, []int{0, 0, 0})
	g := Auto(cond, windows(4), Hints{Selectivity: 1e-4})
	n := g.Root
	for {
		st, ok := n.(Stage)
		if !ok {
			break
		}
		if _, ok := st.Right.(Leaf); !ok {
			t.Fatalf("star plan has a non-leaf right side: %T — spokes are not connected", st.Right)
		}
		n = st.Left
	}
}

// TestStageRoute: equi preferred over band, normalized left-side-first.
func TestStageRoute(t *testing.T) {
	leakcheck.Check(t)
	cond := join.Cross(3).Band(0, 1, 2, 1, 5).Equi(1, 0, 2, 0)
	st := Stage{Left: Stage{Left: Leaf{0}, Right: Leaf{1}}, Right: Leaf{2}}
	route, ok := StageRoute(cond, st)
	if !ok {
		t.Fatal("stage is keyed")
	}
	if route.Mode != join.PartitionEqui {
		t.Fatalf("mode = %v, want equi (preferred over band)", route.Mode)
	}
	if route.KeyAttr[1] != 0 || route.KeyAttr[2] != 0 || route.KeyAttr[0] != -1 {
		t.Fatalf("KeyAttr = %v", route.KeyAttr)
	}

	bandOnly := join.Cross(2).Band(0, 1, 1, 2, 5)
	route, ok = StageRoute(bandOnly, Stage{Left: Leaf{0}, Right: Leaf{1}})
	if !ok || route.Mode != join.PartitionBand || route.Delta != 5 {
		t.Fatalf("band route = %+v ok=%v", route, ok)
	}
}

// TestParseSpec covers the named forms and the s-expression grammar.
func TestParseSpec(t *testing.T) {
	leakcheck.Check(t)
	cond4 := func() *join.Condition { return join.EquiChain(4, 0) }
	w := windows(4)

	g, err := ParseSpec("((0 1)x2 (2 3))x4", cond4(), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	root, ok := g.Root.(Shard)
	if !ok || root.N != 4 {
		t.Fatalf("root = %#v, want ×4 shard", g.Root)
	}
	st := root.Child.(Stage)
	if lsh, ok := st.Left.(Shard); !ok || lsh.N != 2 {
		t.Fatalf("left = %#v, want ×2 shard", st.Left)
	}
	if _, ok := st.Right.(Stage); !ok {
		t.Fatalf("right = %#v, want plain stage", st.Right)
	}

	if g, err = ParseSpec("(0 1 2 3)", cond4(), w, 0); err != nil {
		t.Fatal(err)
	} else if !SpineShape(g) {
		t.Error("n-ary group must fold into the left-deep spine")
	}

	if g, err = ParseSpec("tree-shard:2", cond4(), w, 0); err != nil {
		t.Fatal(err)
	} else if _, ok := g.Root.(Shard); !ok {
		t.Errorf("tree-shard root = %T", g.Root)
	}

	// An EXPLICIT count of 1 is the single-shard baseline, not a request
	// for the default: shard:1 must stay flat, tree-shard:1 the plain spine.
	if g, err = ParseSpec("shard:1", cond4(), w, 0); err != nil {
		t.Fatal(err)
	} else if _, ok := g.Root.(Flat); !ok {
		t.Errorf("shard:1 root = %T, want the unsharded flat baseline", g.Root)
	}
	if g, err = ParseSpec("tree-shard:1", cond4(), w, 0); err != nil {
		t.Fatal(err)
	} else if !SpineShape(g) {
		t.Errorf("tree-shard:1 must be the plain spine, got %T", g.Root)
	}

	for _, bad := range []string{"((0 1) 1)", "(0 1 1)", "(0)", "((0 1) 2)", "nope", "((0 1)x1 2 3)", "(0 1 2 3) x"} {
		if _, err := ParseSpec(bad, cond4(), w, 0); err == nil {
			t.Errorf("spec %q must fail", bad)
		}
	}

	// xN on an unkeyed stage is rejected with a clear error.
	generic := join.Cross(2).Where([]int{0, 1}, func([]*stream.Tuple) bool { return true })
	if _, err := ParseSpec("(0 1)x2", generic, windows(2), 0); err == nil {
		t.Error("sharding an unkeyed stage must fail to parse")
	}
}

// SpineShape reports whether the graph is the unsharded left-deep spine in
// natural stream order — the Sec. V shape, ParsePlan's "tree".
func SpineShape(g *Graph) bool {
	n := g.Root
	for s := g.Cond.M - 1; s >= 1; s-- {
		st, ok := n.(Stage)
		if !ok {
			return false
		}
		r, ok := st.Right.(Leaf)
		if !ok || r.Stream != s {
			return false
		}
		n = st.Left
	}
	l, ok := n.(Leaf)
	return ok && l.Stream == 0
}

// TestSpineShape: recognition of the natural-order spine.
func TestSpineShape(t *testing.T) {
	leakcheck.Check(t)
	if !SpineShape(Spine(join.EquiChain(3, 0), windows(3))) {
		t.Error("Spine() must be a spine")
	}
	g := Auto(join.Star(4, []int{0, 1, 2}, []int{0, 0, 0}), windows(4), Hints{Shards: 2})
	if SpineShape(g) {
		t.Error("sharded stages are not the plain spine shape")
	}
}

// TestExplainStable pins the essential Explain content for the sharded flat
// shape (routes render key attrs and the broadcast note).
func TestExplainStable(t *testing.T) {
	leakcheck.Check(t)
	cond := join.Star(4, []int{0, 1, 2}, []int{0, 0, 0})
	out := ShardedFlat(cond, windows(4), 4).Explain()
	if !strings.Contains(out, "+broadcast(") {
		t.Errorf("partial-equi flat shards must render their broadcast streams:\n%s", out)
	}
	if !strings.Contains(out, "flat MJoin over {0,1,2,3}") {
		t.Errorf("missing flat node:\n%s", out)
	}
}
