package replan

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/leakcheck"
	"repro/internal/plan"
	"repro/internal/stream"
)

func starCond() *join.Condition { return join.Star(4, []int{0, 1, 2}, []int{0, 0, 0}) }

func resultSig(r stream.Result) string {
	parts := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		parts[i] = fmt.Sprintf("%d:%d", t.Src, t.Seq)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// flatReference runs the uninterrupted flat deployment at the fixed K and
// returns its result multiset.
func flatReference(cond *join.Condition, w []stream.Time, k stream.Time, in stream.Batch) map[string]int {
	set := map[string]int{}
	ex := plan.Build(plan.FlatGraph(cond, w),
		plan.ExecConfig{Policy: plan.PolicyStatic, StaticK: k,
			Emit: func(r stream.Result) { set[resultSig(r)]++ }})
	for _, t := range in {
		ex.Push(t)
	}
	ex.Finish()
	return set
}

// TestControllerPhaseFlip drives the full measure→re-plan→migrate loop over
// the dense↔sparse phase-flipping star: the live plan must switch shapes at
// least once per phase change, alternating flat (dense) and tree (sparse),
// while delivering exactly the flat reference's result multiset.
func TestControllerPhaseFlip(t *testing.T) {
	leakcheck.Check(t)
	cond := starCond()
	in := gen.PhaseFlipStar4(4, 500, 11, 12, 600, 200)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{600, 600, 600, 600}
	want := flatReference(starCond(), w, maxD, in.Clone())

	set := map[string]int{}
	var events []Event
	g := plan.FlatGraph(cond, w)
	s, _ := runShell(g, plan.ExecConfig{Policy: plan.PolicyStatic, StaticK: maxD,
		Emit: func(r stream.Result) { set[resultSig(r)]++ }},
		Options{Period: 2000, MinDwell: 3000, Improvement: 1.2,
			OnEvent: func(ev Event) { events = append(events, ev) }}, in.Clone())

	if s.Migrations() < 3 {
		t.Fatalf("phase-flipping star migrated %d times over 3 phase changes, want ≥ 3", s.Migrations())
	}
	for i, ev := range events {
		if ev.From == ev.To {
			t.Fatalf("event %d migrates %s to itself", i, ev.From)
		}
		if ev.ToCost*1.2 > ev.FromCost {
			t.Fatalf("event %d violates hysteresis: cost %v → %v", i, ev.FromCost, ev.ToCost)
		}
		if ev.FromExplain == "" || ev.ToExplain == "" {
			t.Fatalf("event %d misses the Explain renderings", i)
		}
	}
	// The dense regime deploys flat, the sparse regime a tree: both
	// directions must occur.
	var toTree, toFlat bool
	for _, ev := range events {
		if ev.From == "flat4" && ev.To != "flat4" {
			toTree = true
		}
		if ev.To == "flat4" {
			toFlat = true
		}
	}
	if !toTree || !toFlat {
		t.Fatalf("want migrations in both directions, got toTree=%v toFlat=%v (%d events)", toTree, toFlat, len(events))
	}

	if len(set) != len(want) {
		t.Fatalf("migrating run delivered %d distinct results, reference %d", len(set), len(want))
	}
	for k, n := range want {
		if set[k] != n {
			t.Fatalf("result %s delivered ×%d, want ×%d", k, set[k], n)
		}
	}
	if got := s.Results(); got != sum(set) {
		t.Fatalf("gate delivered %d, sink saw %d", got, sum(set))
	}
}

// runShell pushes the feed through an unsupervised shell re-planned by a
// controller with the given options.
func runShell(g *plan.Graph, cfg plan.ExecConfig, opt Options, in stream.Batch) (*plan.Supervised, *Controller) {
	c := New(opt)
	s := plan.NewSupervised(g, cfg, plan.SuperviseConfig{Unsupervised: true, Replan: c})
	for _, e := range in {
		s.Push(e)
	}
	s.Finish()
	return s, c
}

func sum(set map[string]int) int64 {
	var n int64
	for _, c := range set {
		n += int64(c)
	}
	return n
}

// TestControllerMeasuresSelectivity checks the windowed estimator: on a
// steady dense feed the uniform edge decomposition must land near the true
// per-predicate selectivity 1/domain.
func TestControllerMeasuresSelectivity(t *testing.T) {
	leakcheck.Check(t)
	cond := starCond()
	in := gen.PhaseFlipStar4(1, 1200, 3, 20, 20, 100) // one phase: domain 20 throughout
	maxD, _ := in.MaxDelay()
	w := []stream.Time{400, 400, 400, 400}
	g := plan.FlatGraph(cond, w)
	s, c := runShell(g, plan.ExecConfig{Policy: plan.PolicyStatic, StaticK: maxD},
		Options{Period: 3000, Improvement: 100}, in) // never migrate
	ms := c.Measured()
	if len(ms.Edges) != 3 {
		t.Fatalf("star4 has 3 predicate edges, measured %d", len(ms.Edges))
	}
	for _, e := range ms.Edges {
		if e.Sigma < 0.025 || e.Sigma > 0.1 {
			t.Fatalf("edge (%d,%d) measured σ=%.4f, true value 0.05", e.Left, e.Right, e.Sigma)
		}
	}
	for i, r := range ms.Rates {
		if r < 0.05 || r > 0.2 {
			t.Fatalf("stream %d measured rate %.4f tuples/ms, true value 0.1", i, r)
		}
	}
	if s.Migrations() != 0 {
		t.Fatalf("Improvement=100 must suppress migrations, got %d", s.Migrations())
	}
}

// TestControllerDwell pins the dwell hysteresis: with MinDwell beyond the
// stream's length, at most the initial migration can happen.
func TestControllerDwell(t *testing.T) {
	leakcheck.Check(t)
	cond := starCond()
	in := gen.PhaseFlipStar4(4, 500, 5, 12, 600, 100)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{600, 600, 600, 600}
	g := plan.FlatGraph(cond, w)
	s, _ := runShell(g, plan.ExecConfig{Policy: plan.PolicyStatic, StaticK: maxD},
		Options{Period: 2000, MinDwell: 1 << 40, Improvement: 1.2}, in)
	if s.Migrations() > 0 {
		t.Fatalf("MinDwell beyond stream length still migrated %d times", s.Migrations())
	}
}
