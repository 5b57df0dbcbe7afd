package plan

// Differential tests at the executor seam: every deployment the planner can
// emit — flat, sharded flat, bushy trees, stage-sharded trees — must
// produce the result multiset of the flat reference bit-for-bit, on random
// equi/band/generic condition mixes, with buffers covering the disorder.
// CI runs these under -race (the stage workers and the shard runtime are
// the concurrent parts).

import (
	"fmt"
	"repro/internal/leakcheck"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/stream"
)

// runGraph executes a graph at the fixed buffer size k and returns the
// result multiset.
func runGraph(g *Graph, k stream.Time, in stream.Batch) map[string]int {
	set := map[string]int{}
	ex := Build(g, ExecConfig{Policy: PolicyStatic, StaticK: k,
		Emit: func(r stream.Result) { set[difftest.Sig(r.Tuples)]++ }})
	for _, e := range in {
		ex.Push(e)
	}
	ex.Finish()
	return set
}

func sameMultiset(t *testing.T, name string, want, got map[string]int) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: degenerate workload, no results", name)
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d distinct results, want %d", name, len(got), len(want))
		return
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: result %s ×%d, want ×%d", name, k, got[k], v)
			return
		}
	}
}

// TestPlanDifferentialMixes: random equi/band/generic mixes across every
// plannable shape vs the flat reference.
func TestPlanDifferentialMixes(t *testing.T) {
	leakcheck.Check(t)
	conds := []struct {
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
	for seed := int64(41); seed < 44; seed++ {
		for _, tc := range conds {
			in := difftest.MixWorkload(tc.m, 350, seed, 14)
			maxD, _ := in.MaxDelay()
			w := make([]stream.Time, tc.m)
			for i := range w {
				w[i] = 700
			}
			want := runGraph(FlatGraph(tc.mk(), w), maxD, in.Clone())

			specs := []string{"shard:4", "tree", "tree-shard:3", "auto"}
			if tc.m == 4 {
				specs = append(specs, "((0 1) (2 3))", "((0 1)x2 (2 3))x2")
			}
			for _, spec := range specs {
				if strings.HasPrefix(spec, "((0 1)") && tc.name == "star4" {
					continue // star spokes are not connected; bushy invalid
				}
				g, err := ParseSpec(spec, tc.mk(), w, 4)
				if err != nil {
					t.Fatalf("%s/%s: %v", tc.name, spec, err)
				}
				got := runGraph(g, maxD, in.Clone())
				sameMultiset(t, fmt.Sprintf("%s/%s/seed%d", tc.name, spec, seed), want, got)
			}
		}
	}
}

// TestStarAutoPlanDifferential is the acceptance differential: the
// auto-planned x4 star (stage-wise sharded, no broadcast route) matches the
// flat reference bit-for-bit.
func TestStarAutoPlanDifferential(t *testing.T) {
	leakcheck.Check(t)
	mk := func() *join.Condition { return join.Star(4, []int{0, 1, 2}, []int{0, 0, 0}) }
	in := difftest.MixWorkload(4, 1200, 99, 25)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{900, 900, 900, 900}

	g := Auto(mk(), w, Hints{Shards: 4})
	var walk func(Node)
	walk = func(n Node) {
		switch v := n.(type) {
		case Shard:
			if v.Broadcast() {
				t.Fatalf("auto plan contains a broadcast route:\n%s", g.Explain())
			}
			walk(v.Child)
		case Stage:
			walk(v.Left)
			walk(v.Right)
		case Flat:
			t.Fatalf("auto plan fell back to the flat operator:\n%s", g.Explain())
		}
	}
	walk(g.Root)

	want := runGraph(FlatGraph(mk(), w), maxD, in.Clone())
	got := runGraph(g, maxD, in.Clone())
	sameMultiset(t, "star4/auto", want, got)
}
