package difftest_test

// The differential table: each row deploys one shape on a feed and is
// compared, by difftest.Compare, with its reference — difftest.Flat at a
// buffer covering the feed's disorder for the fixed-K rows, the flat
// single-threaded pipeline for the adaptive ones. A new differential of a
// shape reachable through exported API is a row here. Those that need a
// package's unexported state stay in their packages and call the same
// reference and Compare, as do the older exported-API differentials, which
// keep the test and subtest names their history is tracked under. CI runs
// the table under -race.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/leakcheck"
	"repro/internal/plan"
	"repro/internal/stream"
)

// row is one shape on one feed: want is the reference run (shared by the
// rows of one feed), got deploys the shape.
type row struct {
	name string
	want *difftest.Run
	got  func(t *testing.T) *difftest.Run
}

func TestDifferential(t *testing.T) {
	leakcheck.Check(t)
	var rows []row
	for _, family := range []func() []row{planRows, starAutoPlanRows, shardedPipelineRows} {
		rows = append(rows, family()...)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			difftest.Compare(t, r.name, r.want, r.got(t))
		})
	}
}

// static runs a plan graph at the fixed buffer size k.
func static(g *plan.Graph, k stream.Time, in stream.Batch) *difftest.Run {
	r := difftest.NewRun()
	ex := plan.Build(g, plan.ExecConfig{Policy: plan.PolicyStatic, StaticK: k, Emit: r.Emit})
	for _, e := range in {
		ex.Push(e)
	}
	ex.Finish()
	r.Count = ex.Results()
	return r
}

// planRows: every shape the planner can emit — sharded flat, the spine,
// stage-sharded spines, auto, bushy and sharded bushy trees — on random
// equi/band/generic condition mixes.
func planRows() []row {
	var rows []row
	for seed := int64(41); seed < 44; seed++ {
		for _, mx := range difftest.Mixes(false) {
			in := difftest.MixWorkload(mx.M, 350, seed, 14)
			maxD, _ := in.MaxDelay()
			w := difftest.Windows(mx.M, 700)
			want := difftest.Flat(mx.Cond(), w, maxD, in.Clone())
			specs := []string{"shard:4", "tree", "tree-shard:3", "auto"}
			if mx.M == 4 && mx.Name != "star4" { // star spokes are not connected: no bushy tree
				specs = append(specs, "((0 1) (2 3))", "((0 1)x2 (2 3))x2")
			}
			for _, spec := range specs {
				rows = append(rows, row{fmt.Sprintf("plan/%s/%s/seed%d", mx.Name, spec, seed), want,
					func(t *testing.T) *difftest.Run {
						g, err := plan.ParseSpec(spec, mx.Cond(), w, 4)
						if err != nil {
							t.Fatal(err)
						}
						return static(g, maxD, in.Clone())
					}})
			}
		}
	}
	return rows
}

// starAutoPlanRows: the auto-planned x4 star is stage-wise sharded, with no
// broadcast route and no flat fallback, and matches the flat reference.
func starAutoPlanRows() []row {
	mk := difftest.Mixes(false, "star4")[0].Cond
	in := difftest.MixWorkload(4, 1200, 99, 25)
	maxD, _ := in.MaxDelay()
	w := difftest.Windows(4, 900)
	return []row{{"star-auto-plan", difftest.Flat(mk(), w, maxD, in.Clone()),
		func(t *testing.T) *difftest.Run {
			g := plan.Auto(mk(), w, plan.Hints{Shards: 4})
			var walk func(plan.Node)
			walk = func(n plan.Node) {
				switch v := n.(type) {
				case plan.Shard:
					if v.Broadcast() {
						t.Fatalf("auto plan contains a broadcast route:\n%s", g.Explain())
					}
					walk(v.Child)
				case plan.Stage:
					walk(v.Left)
					walk(v.Right)
				case plan.Flat:
					t.Fatalf("auto plan fell back to the flat operator:\n%s", g.Explain())
				}
			}
			walk(g.Root)
			return static(g, maxD, in.Clone())
		}}}
}

// pipeline runs cfg's pipeline over in and captures its results, K
// trajectory and counters.
func pipeline(cfg core.Config, in stream.Batch) *difftest.Run {
	r := difftest.NewRun()
	r.Ks = []difftest.KStep{}
	cfg.Emit = r.Emit
	cfg.OnAdapt = func(ev core.AdaptEvent) { r.Adapt(difftest.KStep(ev)) }
	p := core.New(cfg)
	for _, e := range in.Clone() {
		p.Push(e)
	}
	p.Finish()
	r.Count, r.AvgK = p.Results(), p.AvgK()
	return r
}

// shardedPipelineRows: for every policy and condition shape, the sharded
// pipeline reproduces the single-threaded pipeline's results and K
// trajectory at shard counts 1, 2, 4, 8 — the feedback loop makes one
// global Same-K decision regardless of sharding.
func shardedPipelineRows() []row {
	conds := map[string]func() *join.Condition{
		"equi": func() *join.Condition { return join.EquiChain(2, 0) },
		"band": func() *join.Condition { return join.Cross(2).Band(0, 1, 1, 1, 1) },
		"generic": func() *join.Condition {
			return join.Cross(2).Where([]int{0, 1}, func(a []*stream.Tuple) bool {
				return a[0].Attr(0) == a[1].Attr(0)
			})
		},
	}
	policies := map[string]func(core.Config) core.Config{
		"model": func(c core.Config) core.Config {
			c.Adapt = adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second}
			return c
		},
		"static": func(c core.Config) core.Config {
			c.Policy, c.InitialK = core.StaticPolicy(400), 400
			return c
		},
		"maxk": func(c core.Config) core.Config { c.Policy = core.MaxKPolicy(); return c },
	}
	in := difftest.Arrivals(rand.New(rand.NewSource(17)), 2, 6000)
	w := difftest.Windows(2, stream.Second)
	var rows []row
	for cname, mk := range conds {
		for pname, pc := range policies {
			want := pipeline(pc(core.Config{Windows: w, Cond: mk()}), in)
			for _, shards := range []int{1, 2, 4, 8} {
				rows = append(rows, row{fmt.Sprintf("sharded-pipeline/%s/%s/shards=%d", cname, pname, shards), want,
					func(*testing.T) *difftest.Run {
						cfg := pc(core.Config{Windows: w, Cond: mk()})
						cfg.Sharding = core.Sharding{Shards: shards, BatchSize: 32}
						return pipeline(cfg, in)
					}})
			}
		}
	}
	return rows
}
