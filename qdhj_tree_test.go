package qdhj

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/leakcheck"
	"repro/internal/oracle"
	"repro/internal/stream"
)

// feed3 builds a 3-stream equi workload with per-stream disorder bounds.
func feed3(n int, seed int64, delayMax [3]Time) stream.Batch {
	return gen.SparseEqui3(n, seed, 200, delayMax)
}

func mustPanicT(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// treeJoin deploys cond as the left-deep tree plan.
func treeJoin(t *testing.T, cond *Condition, w []Time, opt Options, jopts ...JoinOption) *Join {
	t.Helper()
	p, err := ParsePlan("tree", cond, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewJoin(cond, w, opt, append(jopts, WithPlan(p))...)
}

// TestTreeJoinLifecycleParity: a tree-plan Join panics on Push-after-Close
// and double-Close exactly like the flat Join (DESIGN.md §3 conventions),
// with a fixed K and with the feedback loop on.
func TestTreeJoinLifecycleParity(t *testing.T) {
	leakcheck.Check(t)
	w := []Time{Second, Second}
	for name, opt := range map[string]Options{
		"static":   {Policy: StaticSlack},
		"adaptive": {Gamma: 0.9},
	} {
		j := treeJoin(t, EquiChain(2, 0), w, opt)
		j.Push(&Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
		j.Close()
		mustPanicT(t, name+": Push after Close", func() {
			j.Push(&Tuple{TS: 2, Src: 1, Attrs: []float64{1}})
		})
		mustPanicT(t, name+": double Close", j.Close)
	}
}

// TestTreeDecideHookFires: on a model-policy tree plan, WithAdaptHook
// observes every adaptation step, each event carries the Γ′ derived at the
// root, and CurrentKs has one entry per stage.
func TestTreeDecideHookFires(t *testing.T) {
	leakcheck.Check(t)
	in := feed3(2000, 4, [3]Time{1500, 1500, 1500})
	var steps int
	j := treeJoin(t, EquiChain(3, 0), []Time{Second, Second, Second},
		Options{Gamma: 0.9, Period: 10 * Second, Interval: Second},
		WithAdaptHook(func(ev AdaptEvent) {
			steps++
			if !(ev.GammaPrime > 0 && ev.GammaPrime <= 1) {
				t.Errorf("step %d at %v: Γ′ = %v, want one in (0, 1]", steps, ev.Now, ev.GammaPrime)
			}
		}))
	pushAll(j, in.Clone())
	if steps == 0 {
		t.Fatal("adapt hook never fired")
	}
	if n := len(j.CurrentKs()); n != 2 {
		t.Fatalf("CurrentKs has %d scopes, want one per stage (2)", n)
	}
	if int64(steps) != j.Adaptations() {
		t.Errorf("hook fired %d times, Adaptations()=%d", steps, j.Adaptations())
	}
}

// TestTreePlanPerStageKDiverges: on asymmetric delays — streams 0 and 1
// nearly ordered, stream 2 heavily delayed — the tree plan's stage Ks
// diverge: stage 0 joins the two ordered streams and buffers less.
func TestTreePlanPerStageKDiverges(t *testing.T) {
	leakcheck.Check(t)
	in := feed3(4000, 9, [3]Time{100, 100, 2500})
	j := treeJoin(t, EquiChain(3, 0), []Time{2 * Second, 2 * Second, 2 * Second},
		Options{Gamma: 0.9, Period: 10 * Second, Interval: Second})
	pushAll(j, in.Clone())
	if j.Adaptations() == 0 {
		t.Fatal("adaptation did not run")
	}
	ks := j.CurrentKs()
	t.Logf("Ks=%v avgK=%.0f results=%d", ks, j.AvgK(), j.Results())
	if len(ks) != 2 {
		t.Fatalf("CurrentKs has %d scopes, want one per stage (2)", len(ks))
	}
	if !(ks[0] < ks[1]) {
		t.Errorf("per-stage Ks did not diverge: %v", ks)
	}
}

// TestTreePlanMeetsGamma: the tree plan's run-level recall against the
// oracle meets Γ with the delay on the last, the first, or every stream.
// One common K on the tree — the removed Same-K mode — missed Γ in every
// (2500, 100, 100) cell and in 4 of 18 symmetric 1500 ms runs of the sweep
// this slice comes from (DESIGN.md §8).
func TestTreePlanMeetsGamma(t *testing.T) {
	leakcheck.Check(t)
	w := []Time{2 * Second, 2 * Second, 2 * Second}
	minMargin, minCell := 1.0, ""
	for _, delays := range [][3]Time{{100, 100, 2500}, {2500, 100, 100}, {1500, 1500, 1500}} {
		for _, domain := range []int{200, 500} {
			for _, seed := range []int64{9, 17} {
				in := gen.SparseEqui3(12000, seed, domain, delays)
				truth := oracle.TrueResults(EquiChain(3, 0), w, in).Total()
				if truth == 0 {
					t.Fatalf("delays %v domain %d seed %d: no true results", delays, domain, seed)
				}
				for _, gamma := range []float64{0.9, 0.99} {
					j := treeJoin(t, EquiChain(3, 0), w, Options{Gamma: gamma, Period: 10 * Second, Interval: Second})
					pushAll(j, in.Clone())
					cell := fmt.Sprintf("delays %v domain %d seed %d Γ %v", delays, domain, seed, gamma)
					recall := float64(j.Results()) / float64(truth)
					if recall < gamma {
						t.Errorf("%s: recall %.4f below Γ", cell, recall)
					}
					if recall-gamma < minMargin {
						minMargin, minCell = recall-gamma, cell
					}
				}
			}
		}
	}
	t.Logf("smallest margin %.4f at %s", minMargin, minCell)
}
