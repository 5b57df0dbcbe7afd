package plan

// Migration differentials: a run that live-migrates between plannable
// shapes at every adaptation boundary must deliver exactly the result
// multiset of the uninterrupted flat reference — exactly-once delivery
// across the shell's gate, bit-for-bit, for every shape pair and every
// equi/band/generic condition mix. CI runs these under -race.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/leakcheck"
	"repro/internal/stream"
)

// fixedLog is a Replanner that never migrates on its own and never prunes:
// the differentials call Migrate themselves, against the complete log.
type fixedLog struct{}

func (fixedLog) Step(*Supervised, *stream.Tuple, bool) {}
func (fixedLog) Period() stream.Time                   { return 0 }

// runMigrating executes the workload at the fixed buffer size k, migrating
// to the next graph in the cycle every `every` arrivals, and returns the
// delivered result multiset. scf selects the shell (unsupervised when
// zero); its Replan is always fixedLog.
func runMigrating(t *testing.T, name string, graphs []*Graph, k stream.Time, in stream.Batch, every int, scf SuperviseConfig) map[string]int {
	t.Helper()
	set := map[string]int{}
	scf.Replan = fixedLog{}
	s := NewSupervised(graphs[0], ExecConfig{Policy: PolicyStatic, StaticK: k,
		Emit: func(r stream.Result) { set[difftest.Sig(r.Tuples)]++ }}, scf)
	cur := 0
	for i, e := range in {
		s.Push(e)
		if (i+1)%every == 0 && i+1 < len(in) {
			next := (cur + 1) % len(graphs)
			rep, err := s.Migrate(graphs[next])
			for errors.Is(err, ErrMigrationInterrupted) { // recovered on the old shape: retry
				rep, err = s.Migrate(graphs[next])
			}
			if err != nil {
				t.Fatalf("%s: migrate %s→%s at arrival %d: %v", name, rep.FromShape, rep.ToShape, i+1, err)
			}
			cur = next
		}
	}
	s.Finish()
	if err := s.Err(); err != nil {
		t.Fatalf("%s: went terminal: %v", name, err)
	}
	if s.Migrations() == 0 {
		t.Fatalf("%s: workload too short, no migration exercised", name)
	}
	if got := s.Results(); got != sumCounts(set) {
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
				got := runMigrating(t, name, graphs, maxD, in.Clone(), every, SuperviseConfig{Unsupervised: true})
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
			got := runMigrating(t, name, graphs, maxD, in.Clone(), every, SuperviseConfig{Unsupervised: true})
			sameMultiset(t, name, want, got)
		}
	}
}

// TestMigrationSupervisedDifferential tours every plannable shape under
// supervision, with worker kills before the first migration, right after
// migrations, and between them: recovery and migration share the log and
// the gate, and the delivered multiset must still be the flat reference's.
func TestMigrationSupervisedDifferential(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range migrationConds() {
		in := difftest.MixWorkload(tc.m, 420, 43, 14)
		maxD, _ := in.MaxDelay()
		w := make([]stream.Time, tc.m)
		for i := range w {
			w[i] = 700
		}
		want := runGraph(FlatGraph(tc.mk(), w), maxD, in.Clone())
		shapes := migrationShapes(tc.m, tc.name == "star4")
		graphs := parseAll(t, shapes, tc.mk(), w)
		every := len(in) / (2*len(shapes) + 1)
		e := int64(every)
		inj := fault.NewInjector().PanicAt(0, e/2).PanicAt(0, e+1).PanicAt(1, 2*e+1).PanicAt(0, 3*e+e/2).PanicAt(0, 4*e+1)
		restarts := 0
		name := tc.name + "/supervised-tour"
		got := runMigrating(t, name, graphs, maxD, in.Clone(), every, SuperviseConfig{
			Backoff: testBackoff(3), Inject: inj, CheckpointEvery: 1,
			OnRestart: func(int, error) { restarts++ },
		})
		if restarts < 3 {
			t.Fatalf("%s: %d restarts, want the kills before, after and between migrations", name, restarts)
		}
		sameMultiset(t, name, want, got)
	}
}

// flipper is a Replanner that moves between two graphs at every phase
// change of a feed with phases of `phase` arrivals, at the first boundary
// after the change.
type flipper struct {
	t        *testing.T
	graphs   [2]*Graph
	phase, n int
}

func (f *flipper) Step(s *Supervised, _ *stream.Tuple, boundary bool) {
	f.n++
	if want := f.graphs[f.n/f.phase%2]; boundary && s.Graph() != want {
		if _, err := s.Migrate(want); err != nil && !errors.Is(err, ErrReplayShallow) {
			f.t.Fatalf("migrate: %v", err)
		}
	}
}

func (f *flipper) Period() stream.Time { return 2000 }

// TestShellStateBounded: the log and the identity records hold what a
// bounded horizon needs, not the run. The phase-flip feed of eight phases
// — its two-phase unit fed four times, five prune periods per phase — may
// not peak above the same unit fed twice, under supervision and a
// migration at every phase change.
func TestShellStateBounded(t *testing.T) {
	leakcheck.Check(t)
	const ticks = 500 // 10 ms each: 5 s per phase
	unit := gen.PhaseFlipStar4(2, ticks, 11, 12, 600, 200)
	maxD, _ := unit.MaxDelay()
	w := []stream.Time{600, 600, 600, 600}
	run := func(units int) (logPeak, gatePeak, migrations int) {
		graphs := parseAll(t, []string{"flat", "tree"}, join.Star(4, []int{0, 1, 2}, []int{0, 0, 0}), w)
		s := NewSupervised(graphs[0], ExecConfig{Policy: PolicyStatic, StaticK: maxD}, SuperviseConfig{
			Backoff: testBackoff(1),
			Replan:  &flipper{t: t, graphs: [2]*Graph{graphs[0], graphs[1]}, phase: len(unit) / 2},
		})
		for u := 0; u < units; u++ {
			for _, e := range unit {
				c := *e
				c.TS += stream.Time(u * 2 * ticks * 10)
				c.Seq += uint64(u * len(unit))
				s.Push(&c)
				logPeak = max(logPeak, len(s.log))
				gatePeak = max(gatePeak, s.gate.ids.len())
			}
		}
		s.Finish()
		return logPeak, gatePeak, s.Migrations()
	}
	log4, gate4, mig4 := run(2)
	log8, gate8, mig8 := run(4)
	if mig4 < 3 || mig8 < 7 {
		t.Fatalf("%d and %d migrations over 3 and 7 phase changes", mig4, mig8)
	}
	if log8 > log4 || gate8 > gate4 {
		t.Fatalf("8 phases peak at %d logged arrivals and %d identity records, 4 phases at %d and %d",
			log8, gate8, log4, gate4)
	}
	t.Logf("peaks: %d logged arrivals, %d identity records", log4, gate4)
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
	cfg := ExecConfig{Policy: PolicyMaxK, Emit: func(r stream.Result) { set[difftest.Sig(r.Tuples)]++ }}
	graphs := parseAll(t, []string{"flat", "tree-shard:2", "shard:2", "tree"}, cond, w)
	cur := 0
	s := NewSupervised(graphs[0], cfg, SuperviseConfig{Unsupervised: true, Replan: fixedLog{}})
	var prevGlobalT stream.Time
	for i, e := range in {
		s.Push(e)
		if (i+1)%300 == 0 && i+1 < len(in) {
			next := (cur + 1) % len(graphs)
			if rep, err := s.Migrate(graphs[next]); err != nil {
				t.Fatalf("adaptive migrate %s→%s: %v", rep.FromShape, rep.ToShape, err)
			}
			cur = next
			if m := s.Stats(); m == nil {
				t.Fatalf("adaptive target lost its feedback loop")
			} else if g := m.GlobalT(); g < prevGlobalT {
				t.Fatalf("transplanted stats went backwards: GlobalT %v → %v", prevGlobalT, g)
			} else {
				prevGlobalT = g
			}
		}
	}
	s.Finish()
	for k, c := range set {
		if c > want[k] {
			t.Fatalf("result %s delivered ×%d, reference has ×%d — duplicate or spurious delivery", k, c, want[k])
		}
	}
	if len(set) == 0 {
		t.Fatal("adaptive migrating run delivered nothing")
	}
}
