package plan

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/leakcheck"
	"repro/internal/stream"
)

var updateTreeGolden = flag.Bool("update", false, "regenerate the golden tree trace")

// treeGoldenRun is the recorded behaviour of one tree deployment: every
// OnAdapt event (Γ′ as raw float bits, so the comparison is bit-for-bit),
// the final per-scope Ks, the result count, and two hashes over the
// delivered results — one in delivery order, one over the multiset.
type treeGoldenRun struct {
	Name        string   `json:"name"`
	Now         []int64  `json:"now"`
	OutT        []int64  `json:"out_t"`
	PrevK       []int64  `json:"prev_k"`
	NewK        []int64  `json:"new_k"`
	GammaPrimes []uint64 `json:"gamma_primes"`
	FinalKs     []int64  `json:"final_ks"`
	Results     int64    `json:"results"`
	OrderedHash uint64   `json:"ordered_hash"`
	SetHash     uint64   `json:"set_hash"`
}

// treeGoldenConfigs lists the traced deployments: the left-deep spine, a
// bushy 4-way shape and a stage-sharded spine, each under the model policy
// and a static K.
func treeGoldenConfigs() []struct {
	name, spec string
	m          int
	policy     Policy
} {
	type entry = struct {
		name, spec string
		m          int
		policy     Policy
	}
	var out []entry
	for _, s := range []struct {
		name, spec string
		m          int
	}{{"tree", "tree", 3}, {"bushy4", "((0 1) (2 3))", 4}, {"tree-shard2", "tree-shard:2", 3}} {
		out = append(out, entry{s.name + "-model", s.spec, s.m, PolicyModel}, entry{s.name + "-static", s.spec, s.m, PolicyStatic})
	}
	return out
}

// treeGoldenFeed is a seeded disordered feed with sparse equi keys: the
// Sec. V sparse 3-way feed with asymmetric delays, or a 4-stream mix.
func treeGoldenFeed(m int) (stream.Batch, []stream.Time) {
	if m == 3 {
		w := 2 * stream.Second
		return gen.SparseEqui3(2500, 29, 200, [3]stream.Time{100, 500, 2500}), []stream.Time{w, w, w}
	}
	w := stream.Second
	return difftest.MixWorkload(4, 2500, 31, 100), []stream.Time{w, w, w, w}
}

func traceTree(t *testing.T, name, spec string, m int, policy Policy) treeGoldenRun {
	t.Helper()
	in, windows := treeGoldenFeed(m)
	g, err := ParseSpec(spec, join.EquiChain(m, 0), windows, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := treeGoldenRun{Name: name}
	h := difftest.NewHash()
	ex := Build(g, ExecConfig{
		Adapt:   adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second},
		Policy:  policy,
		StaticK: 700,
		Emit:    h.Emit,
		OnAdapt: func(ev core.AdaptEvent) {
			r.Now = append(r.Now, int64(ev.Now))
			r.OutT = append(r.OutT, int64(ev.OutT))
			r.PrevK = append(r.PrevK, int64(ev.PrevK))
			r.NewK = append(r.NewK, int64(ev.NewK))
			r.GammaPrimes = append(r.GammaPrimes, math.Float64bits(ev.GammaPrime))
		},
	})
	for _, e := range in {
		ex.Push(e)
	}
	ex.Finish()
	for _, k := range ex.CurrentKs() {
		r.FinalKs = append(r.FinalKs, int64(k))
	}
	r.Results = ex.Results()
	r.OrderedHash, r.SetHash = h.Ordered(), h.Set
	return r
}

// TestGoldenTreeTrace asserts that tree deployments reproduce, bit for bit,
// the adaptation stream, final Ks and results recorded in
// testdata/tree_golden_trace.json (regenerate with `go test -run
// TestGoldenTreeTrace -update`). OutT is the root watermark read after the
// quiesce that follows the new K, the point recall is measured at.
func TestGoldenTreeTrace(t *testing.T) {
	defer leakcheck.Check(t)
	path := filepath.Join("testdata", "tree_golden_trace.json")
	var got []treeGoldenRun
	for _, c := range treeGoldenConfigs() {
		got = append(got, traceTree(t, c.name, c.spec, c.m, c.policy))
	}
	if *updateTreeGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d runs", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update to create): %v", err)
	}
	var want []treeGoldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden trace has %d runs, current code produced %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Name != g.Name {
			t.Fatalf("run %d: name %q != golden %q", i, g.Name, w.Name)
		}
		for _, f := range []struct {
			what      string
			want, got []int64
		}{{"Now", w.Now, g.Now}, {"OutT", w.OutT, g.OutT}, {"PrevK", w.PrevK, g.PrevK}, {"NewK", w.NewK, g.NewK}, {"final Ks", w.FinalKs, g.FinalKs}} {
			if !slices.Equal(f.want, f.got) {
				t.Errorf("%s: %s diverged\n golden: %v\n got:    %v", w.Name, f.what, f.want, f.got)
			}
		}
		if !slices.Equal(w.GammaPrimes, g.GammaPrimes) {
			t.Errorf("%s: Γ′ sequence diverged", w.Name)
		}
		if w.Results != g.Results || w.SetHash != g.SetHash || w.OrderedHash != g.OrderedHash {
			t.Errorf("%s: results %d (hashes %x/%x), golden %d (%x/%x)", w.Name,
				g.Results, g.OrderedHash, g.SetHash, w.Results, w.OrderedHash, w.SetHash)
		}
	}
}

// TestAvgKIsMeanOfHookK: AvgK is the mean over adaptation steps of the
// largest per-scope K, the K every step reports to OnAdapt as NewK — on a
// tree, whose per-stage Ks peak in different steps, as on the flat shape.
// Per-stage averages would be smaller: the largest of them is not the mean
// of the per-step maxima.
func TestAvgKIsMeanOfHookK(t *testing.T) {
	defer leakcheck.Check(t)
	w := 2 * stream.Second
	windows := []stream.Time{w, w, w}
	for _, spec := range []string{"tree", "flat"} {
		for _, seed := range []int64{9, 17, 23} {
			g, err := ParseSpec(spec, join.EquiChain(3, 0), windows, 0)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			var n int
			ex := Build(g, ExecConfig{
				Adapt: adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second},
				OnAdapt: func(ev core.AdaptEvent) {
					sum += float64(ev.NewK)
					n++
				},
			})
			d := 1500 * stream.Millisecond
			for _, e := range gen.SparseEqui3(6000, seed, 200, [3]stream.Time{d, d, d}) {
				ex.Push(e)
			}
			ex.Finish()
			if n == 0 {
				t.Fatalf("%s seed %d: no adaptation step", spec, seed)
			}
			if got, want := ex.AvgK(), sum/float64(n); got != want {
				t.Errorf("%s seed %d: AvgK() = %.1f ms, mean hook NewK = %.1f ms over %d steps", spec, seed, got, want, n)
			}
		}
	}
}
