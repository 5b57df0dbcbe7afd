package plan

import (
	"testing"

	"repro/internal/join"
	"repro/internal/stream"
)

// FuzzParseSpec pins the -plan grammar against hostile input: every spec
// either returns an error (and no graph) or a graph that covers each
// stream of the condition exactly once — never a panic. It runs on a
// chain, where every stage is keyed, and on a condition with no keyed
// stage, where every sharded form must be refused. The seeds are the
// documented forms; the malformed ones (unbalanced groups, duplicate and
// out-of-range streams, bad xN suffixes and counts) are the corpus in
// testdata/fuzz.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"auto", "flat", "shard", "shard:3", "tree", "tree-shard", "tree-shard:4",
		"((0 1) 2 3)", "((0 1)x4 2 3)x4", "((0 1)x2 (2 3)x2)x3", "(0 1 2 3)",
	} {
		f.Add(s)
	}
	w := []stream.Time{100, 100, 100, 100}
	conds := []*join.Condition{
		join.EquiChain(4, 0),
		join.Cross(4).Where([]int{0, 1, 2, 3}, func([]*stream.Tuple) bool { return true }),
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, cond := range conds {
			g, err := ParseSpec(spec, cond, w, 2)
			if err != nil {
				if g != nil {
					t.Fatalf("spec %q: graph returned alongside error %v", spec, err)
				}
				continue
			}
			counts := make([]int, cond.M)
			coverage(t, g.Root, counts)
			for s, c := range counts {
				if c != 1 {
					t.Fatalf("spec %q: graph %v covers stream %d %d times", spec, g.Root, s, c)
				}
			}
		}
	})
}

// coverage counts the leaves of n per stream.
func coverage(t *testing.T, n Node, counts []int) {
	switch n := n.(type) {
	case Leaf:
		if n.Stream < 0 || n.Stream >= len(counts) {
			t.Fatalf("leaf stream %d outside [0,%d)", n.Stream, len(counts))
		}
		counts[n.Stream]++
	case Flat:
		for s := 0; s < n.M; s++ {
			counts[s]++
		}
	case Stage:
		coverage(t, n.Left, counts)
		coverage(t, n.Right, counts)
	case Shard:
		coverage(t, n.Child, counts)
	default:
		t.Fatalf("unknown node %T", n)
	}
}
