package plan

// Migration differentials: a run that live-migrates between plannable
// shapes at every adaptation boundary must deliver exactly the result
// multiset of the uninterrupted flat reference — exactly-once delivery
// across the EmitLog gate, bit-for-bit, for every shape pair and every
// equi/band/generic condition mix. CI runs these under -race.

import (
	"fmt"
	"testing"

	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/leakcheck"
	"repro/internal/stream"
)

// runMigrating executes the workload at the fixed buffer size k, migrating
// to the next graph in the cycle every `every` arrivals, and returns the
// delivered result multiset.
func runMigrating(t *testing.T, name string, graphs []*Graph, k stream.Time, in stream.Batch, every int) map[string]int {
	t.Helper()
	set := map[string]int{}
	gate := NewEmitLog(func(r stream.Result) { set[difftest.Sig(r.Tuples)]++ }, nil)
	cfg := ExecConfig{Policy: PolicyStatic, StaticK: k, Emit: gate.Emit}
	cur := 0
	ex := Build(graphs[0], cfg)
	var log []*stream.Tuple
	migrations := 0
	for i, e := range in {
		ex.Push(e)
		log = append(log, e)
		if (i+1)%every == 0 && i+1 < len(in) {
			next := (cur + 1) % len(graphs)
			nex, rep, err := Migrate(graphs[cur], cfg, ex, graphs[next], cfg,
				MigrateOptions{Log: log, LogSince: LogComplete, Gate: gate})
			if err != nil {
				t.Fatalf("%s: migrate %s→%s at arrival %d: %v", name, rep.FromShape, rep.ToShape, i+1, err)
			}
			ex, cur = nex, next
			migrations++
		}
	}
	ex.Finish()
	if migrations == 0 {
		t.Fatalf("%s: workload too short, no migration exercised", name)
	}
	if got := gate.Delivered(); got != sumCounts(set) {
		t.Fatalf("%s: gate delivered %d, sink saw %d", name, got, sumCounts(set))
	}
	return set
}

func sumCounts(set map[string]int) int64 {
	var n int64
	for _, c := range set {
		n += int64(c)
	}
	return n
}

func migrationConds() []struct {
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
		{"star4", 4, func() *join.Condition { return join.Star(4, []int{0, 1, 2}, []int{0, 0, 0}) }},
		{"band-equi-mix4", 4, func() *join.Condition {
			return join.Cross(4).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 8).Equi(2, 0, 3, 0)
		}},
		{"generic-mix3", 3, func() *join.Condition {
			return join.EquiChain(3, 0).Where([]int{0, 2}, func(a []*stream.Tuple) bool {
				return a[0].Attr(1) <= a[2].Attr(1)+40
			})
		}},
	}
}

func migrationShapes(m int, star bool) []string {
	shapes := []string{"flat", "shard:2", "shard:4", "tree", "tree-shard:3"}
	if m == 4 && !star {
		shapes = append(shapes, "((0 1) (2 3))")
	}
	return shapes
}

// parseAll compiles the specs against ONE shared condition value (Migrate
// requires identical Cond pointers across the graphs of one run).
func parseAll(t *testing.T, specs []string, cond *join.Condition, w []stream.Time) []*Graph {
	t.Helper()
	graphs := make([]*Graph, len(specs))
	for i, sp := range specs {
		g, err := ParseSpec(sp, cond, w, 4)
		if err != nil {
			t.Fatalf("%s: %v", sp, err)
		}
		graphs[i] = g
	}
	return graphs
}

// TestMigrationDifferentialPairs forces migrations alternating between each
// pair of plannable shapes at every boundary; the delivered multiset must
// equal the uninterrupted flat reference.
func TestMigrationDifferentialPairs(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range migrationConds() {
		in := difftest.MixWorkload(tc.m, 350, 42, 14)
		maxD, _ := in.MaxDelay()
		w := make([]stream.Time, tc.m)
		for i := range w {
			w[i] = 700
		}
		want := runGraph(FlatGraph(tc.mk(), w), maxD, in.Clone())
		shapes := migrationShapes(tc.m, tc.name == "star4")
		every := len(in) / 5 // four boundaries, alternating a→b→a→b
		for ai, a := range shapes {
			for _, b := range shapes[ai+1:] {
				cond := tc.mk()
				graphs := parseAll(t, []string{a, b}, cond, w)
				name := fmt.Sprintf("%s/%s↔%s", tc.name, a, b)
				got := runMigrating(t, name, graphs, maxD, in.Clone(), every)
				sameMultiset(t, name, want, got)
			}
		}
	}
}

// TestMigrationDifferentialTour cycles through EVERY plannable shape in one
// run — each boundary migrates to a different shape than the last.
func TestMigrationDifferentialTour(t *testing.T) {
	leakcheck.Check(t)
	for seed := int64(41); seed < 43; seed++ {
		for _, tc := range migrationConds() {
			in := difftest.MixWorkload(tc.m, 420, seed, 14)
			maxD, _ := in.MaxDelay()
			w := make([]stream.Time, tc.m)
			for i := range w {
				w[i] = 700
			}
			want := runGraph(FlatGraph(tc.mk(), w), maxD, in.Clone())
			shapes := migrationShapes(tc.m, tc.name == "star4")
			cond := tc.mk()
			graphs := parseAll(t, shapes, cond, w)
			every := len(in) / (2*len(shapes) + 1)
			name := fmt.Sprintf("%s/tour/seed%d", tc.name, seed)
			got := runMigrating(t, name, graphs, maxD, in.Clone(), every)
			sameMultiset(t, name, want, got)
		}
	}
}

// TestMigrationAdaptive migrates a quality-driven (adaptive) run across
// shapes. Adaptive shapes are not bit-for-bit comparable across deployments
// (each shape's scopes decide their own K), so the assertions are the
// delivery invariants: no duplicate and no spurious result versus the
// full-coverage reference, and the transplanted statistics stay monotone.
func TestMigrationAdaptive(t *testing.T) {
	leakcheck.Check(t)
	cond := join.EquiChain(3, 0)
	in := difftest.MixWorkload(3, 500, 7, 10)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{700, 700, 700}
	want := runGraph(FlatGraph(join.EquiChain(3, 0), w), maxD, in.Clone())

	set := map[string]int{}
	gate := NewEmitLog(func(r stream.Result) { set[difftest.Sig(r.Tuples)]++ }, nil)
	cfg := ExecConfig{Policy: PolicyMaxK, Emit: gate.Emit}
	graphs := parseAll(t, []string{"flat", "tree-shard:2", "shard:2", "tree"}, cond, w)
	cur := 0
	ex := Build(graphs[0], cfg)
	var log []*stream.Tuple
	var prevGlobalT stream.Time
	for i, e := range in {
		ex.Push(e)
		log = append(log, e)
		if (i+1)%300 == 0 && i+1 < len(in) {
			next := (cur + 1) % len(graphs)
			nex, rep, err := Migrate(graphs[cur], cfg, ex, graphs[next], cfg,
				MigrateOptions{Log: log, LogSince: LogComplete, Gate: gate})
			if err != nil {
				t.Fatalf("adaptive migrate %s→%s: %v", rep.FromShape, rep.ToShape, err)
			}
			ex, cur = nex, next
			if m := ex.Stats(); m == nil {
				t.Fatalf("adaptive target lost its feedback loop")
			} else if g := m.GlobalT(); g < prevGlobalT {
				t.Fatalf("transplanted stats went backwards: GlobalT %v → %v", prevGlobalT, g)
			} else {
				prevGlobalT = g
			}
		}
	}
	ex.Finish()
	for k, c := range set {
		if c > want[k] {
			t.Fatalf("result %s delivered ×%d, reference has ×%d — duplicate or spurious delivery", k, c, want[k])
		}
	}
	if len(set) == 0 {
		t.Fatal("adaptive migrating run delivered nothing")
	}
}
