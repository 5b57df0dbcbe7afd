// Package table is the differential table: every deployment shape, on its
// feeds, against its reference, each check written once as a row. It holds
// the paper's contract that a deployment changes latency, never the join's
// answer, in three forms:
//
//   - At a K that covers the feed's disorder a shape equals its reference
//     bit for bit: difftest.Flat for the fixed-K rows, difftest.Operator
//     record by record for the sharded and networked runtimes, the flat
//     pipeline's results, K trajectory and AvgK for the adaptive rows.
//   - A restore row cuts the run, round-trips its state through gob and
//     resumes; a recover row kills workers and lets supervision restore
//     them. Both reproduce the uninterrupted, healthy run exactly.
//   - Below that K the contract is difftest.Within: no duplicate and no
//     spurious result, but fewer results than the flat reference where a
//     shape drops late tuples at more places. At K = 0 under NoSlack a
//     left-deep 3-way equi chain on difftest.MixWorkload(3, 600, 5, 14)
//     yields 19 589 results against Flat's 20 119, because each stage's
//     Synchronizer drops its own late tuples.
//
// A family of rows runs under one test, found by name (Run): the families
// older than this table keep the test IDs their history is tracked under,
// each a one-line runner in its layer's package, and the rest run under
// TestDifferential. A row keeps its family's feed, seed, condition,
// windows and K; checks of a row that are not comparisons (a restart
// happened, a signature survived the wire) run inside its got.
package table

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	qdhj "repro"
	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/leakcheck"
	"repro/internal/loopback"
	qnet "repro/internal/net"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/stream"
)

// row is one shape on one feed: want is the reference run, shared by the
// rows of one feed, and got deploys the shape.
type row struct {
	name string
	want *difftest.Run
	got  func(t *testing.T) *difftest.Run
}

// Run runs the family registered under t's name, one subtest per row, and
// compares each row's run with its reference.
func Run(t *testing.T) {
	family, ok := families[t.Name()]
	if !ok {
		t.Fatalf("table: no family runs under %s", t.Name())
	}
	for _, r := range family(t) {
		t.Run(r.name, func(t *testing.T) {
			leakcheck.Check(t)
			difftest.Compare(t, r.name, r.want, r.got(t))
		})
	}
}

var families = map[string]func(t *testing.T) []row{
	"TestDifferential": func(*testing.T) []row {
		return slices.Concat(planRows(), starAutoPlanRows(), shardedPipelineRows())
	},

	// The plan tree (internal/dist) at a K covering the disorder: the
	// spine on every predicate class, unequal windows (a partial expires
	// with its earliest constituent), bushy and stage-sharded shapes, the
	// star whose stages have no full key class, band stages partitioned by
	// range cells with ±ε replicas.
	"TestTreeAgreesWithMJoin2Way": func(*testing.T) []row {
		return fixedK("spine/%s", chain(2), difftest.Windows(2, stream.Second), treeFeed(2, 2000, 1, 10), "(0 1)")
	},
	"TestTreeAgreesWithMJoin3Way": func(*testing.T) []row {
		w := difftest.Windows(3, 2*stream.Second)
		rows := fixedK("spine/%s", chain(3), w, treeFeed(3, 1200, 2, 200), "((0 1) 2)")
		got := rows[0].got
		rows[0].got = func(t *testing.T) *difftest.Run {
			if n := dist.NewPlanTree(join.EquiChain(3, 0), w, dist.Spine(3), nil).Operators(); n != 2 {
				t.Fatalf("Operators = %d, want 2", n)
			}
			return got(t)
		}
		return rows
	},
	"TestTreeAgreesWithMJoinUnequalWindows": func(*testing.T) []row {
		return fixedK("spine/%s", chain(3), []stream.Time{500, 2 * stream.Second, stream.Second}, treeFeed(3, 1000, 3, 50), "((0 1) 2)")
	},
	"TestTreeBandPredicate": func(*testing.T) []row {
		return fixedK("spine/%s", func() *join.Condition { return join.Cross(2).Equi(0, 0, 1, 0).Band(0, 1, 1, 1, 7) },
			difftest.Windows(2, stream.Second), treeFeed(2, 1500, 9, 40), "(0 1)")
	},
	"TestTreePureBandPredicate": func(*testing.T) []row {
		return fixedK("spine/%s", func() *join.Condition { return join.Cross(2).Band(0, 1, 1, 1, 12) },
			difftest.Windows(2, 500), treeFeed(2, 900, 10, 5), "(0 1)")
	},
	"TestTreeBandChain3Way": func(*testing.T) []row {
		return fixedK("spine/%s", func() *join.Condition { return join.Cross(3).Band(0, 1, 1, 1, 9).Band(1, 1, 2, 1, 9) },
			difftest.Windows(3, 400), treeFeed(3, 700, 21, 5), "((0 1) 2)")
	},
	"TestTreeGenericPredicate": func(*testing.T) []row {
		return fixedK("spine/%s", func() *join.Condition {
			return join.Cross(2).Where([]int{0, 1}, func(a []*stream.Tuple) bool {
				return math.Abs(a[0].Attr(1)-a[1].Attr(1)) < 10
			})
		}, difftest.Windows(2, 300), treeFeed(2, 800, 4, 5), "(0 1)")
	},
	"TestPlanTreeSpineAgreesWithMJoin": func(*testing.T) []row {
		in, w := treeFeed(3, 900, 11, 12), difftest.Windows(3, stream.Second)
		return slices.Concat(
			fixedK("equichain/%s", chain(3), w, in, "((0 1) 2)"),
			fixedK("band+equi/%s", func() *join.Condition { return join.Cross(3).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 6) }, w, in, "((0 1) 2)"),
			fixedK("generic/%s", func() *join.Condition {
				return join.Cross(3).Equi(0, 0, 1, 0).Equi(1, 0, 2, 0).Where([]int{0, 2}, func(a []*stream.Tuple) bool {
					return a[0].Attr(1) < a[2].Attr(1)+50
				})
			}, w, in, "((0 1) 2)"))
	},
	"TestPlanTreeBushyAgreesWithMJoin": func(*testing.T) []row {
		in, w := treeFeed(4, 500, 7, 8), difftest.Windows(4, 800)
		return slices.Concat(
			fixedK("equichain/%s", chain(4), w, in, "((0 1) (2 3))", "(0 (1 (2 3)))"),
			fixedK("bandchain/%s", func() *join.Condition {
				return join.Cross(4).Band(0, 1, 1, 1, 9).Equi(1, 0, 2, 0).Band(2, 1, 3, 1, 9)
			}, w, in, "((0 1) (2 3))"),
			fixedK("generic/%s", func() *join.Condition {
				return join.EquiChain(4, 0).Where([]int{1, 3}, func(a []*stream.Tuple) bool {
					return a[1].Attr(1) != a[3].Attr(1)
				})
			}, w, in, "((0 1) (2 3))"))
	},
	"TestPlanTreeStageShardedAgreesWithMJoin": func(*testing.T) []row {
		in, w := treeFeed(4, 600, 13, 10), difftest.Windows(4, 800)
		return slices.Concat(
			fixedK("star/%s", difftest.Mixes(false, "star4")[0].Cond, w, in,
				"(((0 1)x2 2)x2 3)x2", "(((0 1)x4 2)x4 3)x4", "(((0 1)x8 2)x8 3)x8"),
			fixedK("equichain/%s", chain(4), w, in, "((0 1)x2 (2 3))x4"))
	},
	"TestPlanTreeBandShardedStage": func(*testing.T) []row {
		return fixedK("band/%s", func() *join.Condition { return join.Cross(2).Band(0, 1, 1, 1, 11) },
			difftest.Windows(2, 600), treeFeed(2, 900, 19, 30), "(0 1)x2", "(0 1)x5")
	},

	// The sharded and networked runtimes behind the Synchronizer, record by
	// record against one operator: every partition mode, shard counts
	// 1/2/4/8, worker counts 1/2/4 and frame batches from per-tuple to 64.
	"TestShardedMatchesSingleOperator": func(*testing.T) []row {
		var rows []row
		for _, m := range []int{2, 3} {
			for name, mk := range difftest.Conds(m, false) {
				for _, n := range []int{1, 2, 4, 8} {
					w := difftest.Windows(m, 150)
					seq := difftest.GenSeq(rand.New(rand.NewSource(int64(31*m+n))), m, 1200, 150)
					rows = append(rows, row{fmt.Sprintf("m=%d/%s/shards=%d", m, name, n), difftest.Operator(mk(), w, seq),
						func(*testing.T) *difftest.Run { return sharded(mk(), w, seq, n, 257) }})
				}
			}
		}
		return rows
	},
	// Band keys near the cell-clamp boundary still meet: the clamp
	// saturates monotonically instead of collapsing to zero.
	"TestBandHugeKeySaturation": func(t *testing.T) []row {
		mk := func() *join.Condition { return join.Cross(2).Band(0, 0, 1, 0, 1) }
		w := difftest.Windows(2, 100)
		seq := []*stream.Tuple{
			{TS: 10, Seq: 0, Src: 0, Attrs: []float64{4e15 - 0.5}},
			{TS: 11, Seq: 1, Src: 1, Attrs: []float64{4e15 + 0.5}},
			{TS: 12, Seq: 2, Src: 0, Attrs: []float64{-4e15 - 0.5}},
			{TS: 13, Seq: 3, Src: 1, Attrs: []float64{-4e15 + 0.5}},
			{TS: 14, Seq: 4, Src: 0, Attrs: []float64{math.Inf(1)}},
			{TS: 15, Seq: 5, Src: 1, Attrs: []float64{math.NaN()}},
		}
		want := difftest.Operator(mk(), w, seq)
		if len(want.Results) != 2 {
			t.Fatalf("reference: want 2 results (one per boundary pair), got %d", len(want.Results))
		}
		var rows []row
		for _, n := range []int{2, 4, 8} {
			rows = append(rows, row{fmt.Sprintf("shards=%d", n), want,
				func(*testing.T) *difftest.Run { return sharded(mk(), w, seq, n, 0) }})
		}
		return rows
	},
	"TestNetworkedMatchesSingleOperator": func(*testing.T) []row {
		var rows []row
		for _, m := range []int{2, 3} {
			for name, mk := range difftest.Conds(m, true) {
				for _, tc := range []struct{ workers, batch int }{{1, 7}, {2, 1}, {2, 64}, {4, 1}, {4, 64}} {
					seq := difftest.GenSeq(rand.New(rand.NewSource(int64(101*m+7*tc.workers+tc.batch))), m, 600, 300)
					w := difftest.Windows(m, 300)
					rows = append(rows, row{fmt.Sprintf("m=%d/%s/w=%d/b=%d", m, name, tc.workers, tc.batch), difftest.Operator(mk(), w, seq),
						func(t *testing.T) *difftest.Run { return networked(t, mk(), w, seq, tc.workers, tc.batch) }})
				}
			}
		}
		return rows
	},

	// The public API: shards and fixed-K plans against the flat Join.
	"TestWithShardsMatchesSingleThreaded": func(*testing.T) []row {
		in, w := rootFeed(3000, 9), difftest.Windows(2, stream.Second)
		opt := qdhj.Options{Gamma: 0.9, Period: 10 * stream.Second}
		// No results sink: the count-only path, K trajectory and counters.
		want, _ := api(join.EquiChain(2, 0), w, opt, in, false)
		var rows []row
		for _, n := range []int{1, 2, 4, 8} {
			rows = append(rows, row{fmt.Sprintf("shards=%d", n), want, func(*testing.T) *difftest.Run {
				got, _ := api(join.EquiChain(2, 0), w, opt, in, false, qdhj.WithShards(n))
				return got
			}})
		}
		return rows
	},
	"TestJoinWithPlanDifferential": func(*testing.T) []row {
		star := difftest.Mixes(false, "star4")[0].Cond
		in, w := gen.SparseStar4(1500, 7, 40, [4]stream.Time{800, 800, 800, 800}), difftest.Windows(4, stream.Second)
		maxD, _ := in.MaxDelay()
		return []row{{"planned join", difftest.Flat(star(), w, maxD, in.Clone()), func(*testing.T) *difftest.Run {
			cond := star()
			got, _ := api(cond, w, qdhj.Options{Policy: qdhj.StaticSlack, StaticK: maxD}, in, true,
				qdhj.WithPlan(qdhj.AutoPlan(cond, w, qdhj.PlanHints{Shards: 4})))
			return got
		}}}
	},
	"TestTreeJoinAgreesWithJoin": func(*testing.T) []row {
		in, w := rootFeed(1500, 5), difftest.Windows(2, stream.Second)
		maxD, _ := in.MaxDelay()
		opt := qdhj.Options{Policy: qdhj.StaticSlack, StaticK: maxD}
		want, _ := api(join.EquiChain(2, 0), w, opt, in, true)
		return []row{{"tree", want, func(t *testing.T) *difftest.Run {
			cond := join.EquiChain(2, 0)
			got, _ := api(cond, w, opt, in, true, qdhj.WithPlan(joinPlan(t, "tree", cond, w)))
			return got
		}}}
	},

	// The adaptive pipeline on loopback TCP workers, through the public
	// API: results, K trajectory and AvgK equal the in-process flat Join's.
	"TestRemoteAdaptiveDifferential": remote(func(mix string, workers, _ int) string {
		return fmt.Sprintf("%s/workers=%d", mix, workers)
	}, 23, []int{0}, "equichain3", "band-equi-mix4", "generic-mix3"),
	"TestWithRemoteWorkersDifferential": remote(func(_ string, workers, batch int) string {
		return fmt.Sprintf("w%d/%s", workers, map[int]string{1: "per-tuple", 128: "batched"}[batch])
	}, 27, []int{1, 128}, "generic-mix3"),

	// Restore: a run cut at a tuple or an adaptation boundary, its state
	// round-tripped through gob and resumed in a fresh pipeline, equals the
	// uninterrupted run — results, count, K trajectory and AvgK — on the
	// flat pipeline at every shard count and on spine and bushy trees with
	// sharded stages.
	"TestCheckpointRestoreDifferential": func(*testing.T) []row {
		in := difftest.Arrivals(rand.New(rand.NewSource(7)), 2, 4000)
		var rows []row
		for name, mk := range twoWay {
			for _, shards := range []int{1, 2, 4, 8} {
				cfg := func() core.Config {
					return core.Config{Windows: difftest.Windows(2, 2*stream.Second), Cond: mk(), Adapt: loop10s,
						Sharding: core.Sharding{Shards: shards}}
				}
				want := Pipeline(cfg(), in)
				for _, cut := range []int{1333, 2000} {
					rows = append(rows, row{fmt.Sprintf("%s/shards%d/cut%d", name, shards, cut), want,
						func(t *testing.T) *difftest.Run { return Resumed(t, cfg(), in, Cut{Tuple: cut}) }})
				}
			}
		}
		return rows
	},
	"TestPlanTreeCheckpointRestoreDifferential": func(t *testing.T) []row {
		in, w := treeFeed(3, 3000, 23, 40), difftest.Windows(3, stream.Second)
		conds := map[string]func() *join.Condition{
			"equichain": chain(3),
			"band+equi": func() *join.Condition { return join.Cross(3).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 6) },
		}
		var rows []row
		for name, mk := range conds {
			for _, shards := range []int{1, 2, 4, 8} {
				cfg := func() core.Config {
					n := shards
					if n == 1 {
						n = 0
					}
					return treeConfig(mk(), w, stage(n, stage(n, leaf(0), leaf(1)), leaf(2)))
				}
				want := Pipeline(cfg(), in)
				for _, cut := range []int{3, 8} {
					if want.Count == 0 || len(want.Ks) <= cut {
						t.Fatalf("%s/shards%d: degenerate workload for cut %d", name, shards, cut)
					}
					rows = append(rows, row{fmt.Sprintf("%s/shards%d/cut%d", name, shards, cut), want,
						func(t *testing.T) *difftest.Run { return Resumed(t, cfg(), in, Cut{Boundary: cut}) }})
				}
			}
		}
		return rows
	},
	// The bushy shape whose root stage governs no raw buffer (its K stays
	// pinned 0) and whose checkpoint carries two sub-plan window sets.
	"TestPlanTreeCheckpointRestoreBushy": func(t *testing.T) []row {
		in, w := treeFeed(4, 2500, 29, 60), difftest.Windows(4, stream.Second)
		cfg := func() core.Config {
			return treeConfig(join.EquiChain(4, 0), w, stage(4, stage(2, leaf(0), leaf(1)), stage(0, leaf(2), leaf(3))))
		}
		want := Pipeline(cfg(), in)
		if want.Count == 0 || len(want.Ks) <= 4 {
			t.Fatal("degenerate workload")
		}
		return []row{{"cut4", want, func(t *testing.T) *difftest.Run { return Resumed(t, cfg(), in, Cut{Boundary: 4}) }}}
	},
	// Every plannable shape through the public snapshot: half the feed, a
	// checkpoint (at the next adaptation boundary on adaptive shapes), the
	// snapshot through its wire format, a restore, the rest.
	"TestJoinCheckpointRoundTrip": func(t *testing.T) []row {
		mix4 := difftest.Mixes(false, "band-equi-mix4")[0].Cond
		adaptive := rootAdapt
		var rows []row
		for _, c := range []struct {
			name, spec string
			mk         func() *join.Condition
			opt        qdhj.Options
			rounds     int
			seed       int64
			domain     int
			atAdapt    bool
		}{
			{"flat-equi3", "flat", mix3, adaptive, 1200, 17, 14, true},
			{"shard4-equi3", "shard:4", mix3, adaptive, 1200, 17, 14, true},
			{"shard8-equi3", "shard:8", mix3, adaptive, 1000, 19, 14, true},
			{"tree-equi3", "tree", mix3, adaptive, 1200, 17, 14, true},
			{"treeshard2-equi3", "tree-shard:2", mix3, adaptive, 1200, 17, 14, true},
			{"shard2-mix4", "shard:2", mix4, adaptive, 900, 23, 12, true},
			{"tree-mix4", "tree", mix4, adaptive, 900, 23, 12, true},
			{"bushy-mix4", "((0 1)x2 (2 3))x2", mix4, adaptive, 900, 23, 12, true},
			{"static-tree-mix4", "tree-shard:2", mix4, qdhj.Options{Policy: qdhj.StaticSlack, StaticK: 1600}, 700, 29, 12, false},
		} {
			m := c.mk().M
			w := difftest.Windows(m, 700)
			in := difftest.MixWorkload(m, c.rounds, c.seed, c.domain)
			cond := c.mk()
			want, _ := api(cond, w, c.opt, in, true, qdhj.WithPlan(joinPlan(t, c.spec, cond, w)))
			rows = append(rows, row{c.name, want, func(t *testing.T) *difftest.Run {
				return resumedJoin(t, c.spec, c.mk, w, c.opt, in, c.atAdapt)
			}})
		}
		return rows
	},

	// Recover: workers killed at injected arrival counts (driver side) or
	// inside a worker process (worker side); the supervised run restores
	// from its boundary checkpoints and equals the healthy run exactly.
	"TestSupervisedRecoveryDifferential": func(t *testing.T) []row {
		var rows []row
		for _, mx := range difftest.Mixes(false, "equichain3", "band-equi-mix4") {
			in, w := difftest.MixWorkload(mx.M, 1200, 17, 14), difftest.Windows(mx.M, 700)
			specs := []string{"flat", "shard:2", "shard:4", "shard:8", "tree", "tree-shard:2"}
			if mx.M == 4 {
				specs = append(specs, "((0 1)x4 (2 3))x4")
			}
			// A healthy shard:n run is the healthy flat run, results and K
			// trajectory, so those shapes share it.
			flat := planned(planGraph(t, "flat", mx.Cond(), w), plan.ExecConfig{Adapt: supAdapt}, in)
			for _, spec := range specs {
				want := flat
				if spec != "flat" && !strings.HasPrefix(spec, "shard:") {
					want = planned(planGraph(t, spec, mx.Cond(), w), plan.ExecConfig{Adapt: supAdapt}, in)
				}
				if want.Count == 0 || len(want.Ks) < 4 {
					t.Fatalf("%s/%s: degenerate reference: %d results, %d adaptations", mx.Name, spec, want.Count, len(want.Ks))
				}
				rows = append(rows, row{mx.Name + "/" + spec, want, func(t *testing.T) *difftest.Run {
					// Worker 0 exists on every shape (worker-less engines
					// check it on the driver thread); the second directive
					// targets the highest shard-local worker id and fires
					// only when sharded. CheckpointEvery 1 captures at every
					// boundary, so recoveries restore the newest checkpoint.
					inj := fault.NewInjector()
					inj.PanicAt(0, 400)
					inj.PanicAt(1, 2500)
					return supervised(t, planGraph(t, spec, mx.Cond(), w), plan.ExecConfig{Adapt: supAdapt},
						plan.SuperviseConfig{Backoff: backoff(3), Inject: inj, CheckpointEvery: 1}, in)
				}})
			}
		}
		return rows
	},
	"TestRemoteSupervisedWorkerKill": func(t *testing.T) []row {
		in, w := difftest.MixWorkload(3, 1200, 23, 14), difftest.Windows(3, 700)
		want := planned(plan.FlatGraph(chain(3)(), w), plan.ExecConfig{Adapt: supAdapt}, in)
		return []row{{"remote-kill", want, func(t *testing.T) *difftest.Run {
			// The fault fires inside daemon 1 at its 400th probe; the
			// supervisor only supplies backoff and checkpoint cadence.
			inj := fault.NewInjector()
			inj.PanicAt(1, 400)
			return supervised(t, plan.ShardedFlat(chain(3)(), w, 2),
				plan.ExecConfig{Adapt: supAdapt, Remote: daemons(t, 2, map[int]*fault.Injector{1: inj})},
				plan.SuperviseConfig{Backoff: backoff(3), CheckpointEvery: 1}, in)
		}}}
	},
	"TestJoinSupervisedRecovery": func(t *testing.T) []row {
		in, w := difftest.MixWorkload(3, 1200, 17, 14), difftest.Windows(3, 700)
		var rows []row
		for _, spec := range []string{"shard:4", "tree-shard:2"} {
			cond := mix3()
			want, _ := api(cond, w, rootAdapt, in, true, qdhj.WithPlan(joinPlan(t, spec, cond, w)))
			rows = append(rows, row{spec, want, func(t *testing.T) *difftest.Run {
				cond := mix3()
				got, j := api(cond, w, rootAdapt, in, true, qdhj.WithPlan(joinPlan(t, spec, cond, w)),
					qdhj.WithInjector(qdhj.NewInjector().PanicAt(0, 400).PanicAt(1, 2500)),
					qdhj.WithSupervision(qdhj.Supervision{Backoff: backoff(3)}))
				recovered(t, j.Err(), j.Restarts())
				return got
			}})
		}
		return rows
	},
	"TestWithRemoteWorkersSupervisedKill": func(*testing.T) []row {
		mx := difftest.Mixes(true, "generic-mix3")[0]
		in, w := difftest.MixWorkload(3, 1200, 27, 14), difftest.Windows(3, 700)
		want, _ := api(mx.Cond(), w, rootAdapt, in, true)
		return []row{{"remote-kill", want, func(t *testing.T) *difftest.Run {
			inj := qdhj.NewInjector()
			inj.PanicAt(1, 500)
			got, j := api(mx.Cond(), w, rootAdapt, in, true,
				qdhj.WithRemoteWorkers(daemons(t, 2, map[int]*fault.Injector{1: inj})...),
				qdhj.WithSupervision(qdhj.Supervision{Backoff: backoff(3), CheckpointEvery: 1}))
			recovered(t, j.Err(), j.Restarts())
			return got
		}}}
	},
}

// The adaptation settings of the rows: the pipeline-level rows adapt every
// second over a 10 s period, the plan- and API-level rows every 200 ms over
// 1 s.
var (
	loop10s   = adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second}
	supAdapt  = adapt.Config{Gamma: 0.9, P: stream.Second, L: 200 * stream.Millisecond}
	rootAdapt = qdhj.Options{Gamma: 0.9, Period: stream.Second, Interval: 200 * stream.Millisecond}
)

// twoWay is the two-stream condition of each class the pipeline rows run.
var twoWay = map[string]func() *join.Condition{
	"equi": chain(2),
	"band": func() *join.Condition { return join.Cross(2).Band(0, 1, 1, 1, 1) },
	"generic": func() *join.Condition {
		return join.Cross(2).Where([]int{0, 1}, func(a []*stream.Tuple) bool {
			return a[0].Attr(0) == a[1].Attr(0)
		})
	},
}

func chain(m int) func() *join.Condition {
	return func() *join.Condition { return join.EquiChain(m, 0) }
}

// mix3 is an equi chain under an opaque generic residual.
func mix3() *join.Condition {
	return join.Cross(3).Equi(0, 0, 1, 0).Equi(1, 0, 2, 0).
		Where([]int{1, 2}, func(a []*stream.Tuple) bool {
			return a[1].Attr(1) <= a[2].Attr(1)+120
		})
}

// treeFeed is the tree rows' Feed: up to 2 s late, a key and a value below
// 100. rootFeed is the two-stream public-API feed: up to 2 s late, a key
// below 10 and no value.
func treeFeed(m, rounds int, seed int64, domain int) stream.Batch {
	return difftest.Feed(m, rounds, seed, domain, 2000, 100)
}

func rootFeed(rounds int, seed int64) stream.Batch {
	return difftest.Feed(2, rounds, seed, 10, 2000, 0)
}

func leaf(s int) *dist.Shape { return &dist.Shape{Stream: s} }

// stage joins two sub-shapes, partitioned into shards workers when > 0.
func stage(shards int, l, r *dist.Shape) *dist.Shape {
	return &dist.Shape{Left: l, Right: r, Shards: shards}
}

// treeConfig is the adaptive tree pipeline of the restore rows.
func treeConfig(cond *join.Condition, w []stream.Time, shape *dist.Shape) core.Config {
	return core.Config{Windows: w, Cond: cond, Adapt: loop10s, Tree: shape}
}

func backoff(retries int) fault.Backoff {
	return fault.Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond,
		Retries: retries, Seed: 7, Sleep: func(time.Duration) {}}
}

// daemons starts n worker daemons on loopback, the i-th armed with inj[i].
func daemons(t *testing.T, n int, inj map[int]*fault.Injector) []string {
	return loopback.Listen(t, n, func(i int, l net.Listener) { _ = qnet.Serve(l, qnet.ServeConfig{Inject: inj[i]}) })
}

// fixedK deploys each plan spec at a K covering in's disorder against the
// flat reference, one row per spec named by name's %s.
func fixedK(name string, mk func() *join.Condition, w []stream.Time, in stream.Batch, specs ...string) []row {
	maxD, _ := in.MaxDelay()
	want := difftest.Flat(mk(), w, maxD, in.Clone())
	var rows []row
	for _, spec := range specs {
		rows = append(rows, row{fmt.Sprintf(name, spec), want, func(t *testing.T) *difftest.Run {
			return planned(planGraph(t, spec, mk(), w), plan.ExecConfig{Policy: plan.PolicyStatic, StaticK: maxD}, in)
		}})
	}
	return rows
}

// planRows: every shape the planner can emit — sharded flat, the spine,
// stage-sharded spines, auto, bushy and sharded bushy trees — on random
// equi/band/generic condition mixes.
func planRows() []row {
	var rows []row
	for seed := int64(41); seed < 44; seed++ {
		for _, mx := range difftest.Mixes(false) {
			specs := []string{"shard:4", "tree", "tree-shard:3", "auto"}
			if mx.M == 4 && mx.Name != "star4" { // star spokes are not connected: no bushy tree
				specs = append(specs, "((0 1) (2 3))", "((0 1)x2 (2 3))x2")
			}
			rows = append(rows, fixedK(fmt.Sprintf("plan/%s/%%s/seed%d", mx.Name, seed), mx.Cond,
				difftest.Windows(mx.M, 700), difftest.MixWorkload(mx.M, 350, seed, 14), specs...)...)
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
			return planned(g, plan.ExecConfig{Policy: plan.PolicyStatic, StaticK: maxD}, in)
		}}}
}

// shardedPipelineRows: for every policy and condition shape, the sharded
// pipeline reproduces the single-threaded pipeline's results and K
// trajectory at shard counts 1, 2, 4, 8 — the feedback loop makes one
// global Same-K decision regardless of sharding.
func shardedPipelineRows() []row {
	policies := map[string]func(core.Config) core.Config{
		"model": func(c core.Config) core.Config { c.Adapt = loop10s; return c },
		"static": func(c core.Config) core.Config {
			c.Policy, c.InitialK = core.StaticPolicy(400), 400
			return c
		},
		"maxk": func(c core.Config) core.Config { c.Policy = core.MaxKPolicy(); return c },
	}
	in := difftest.Arrivals(rand.New(rand.NewSource(17)), 2, 6000)
	w := difftest.Windows(2, stream.Second)
	var rows []row
	for cname, mk := range twoWay {
		for pname, pc := range policies {
			want := Pipeline(pc(core.Config{Windows: w, Cond: mk()}), in)
			for _, shards := range []int{1, 2, 4, 8} {
				rows = append(rows, row{fmt.Sprintf("sharded-pipeline/%s/%s/shards=%d", cname, pname, shards), want,
					func(*testing.T) *difftest.Run {
						cfg := pc(core.Config{Windows: w, Cond: mk()})
						cfg.Sharding = core.Sharding{Shards: shards, BatchSize: 32}
						return Pipeline(cfg, in)
					}})
			}
		}
	}
	return rows
}

// remote is the networked family: each mix's feed of the given seed on 2
// and 4 loopback workers at each frame batch (0: the default), through the
// public API, against the in-process flat Join.
func remote(name func(mix string, workers, batch int) string, seed int64, batches []int, mixes ...string) func(*testing.T) []row {
	return func(t *testing.T) []row {
		var rows []row
		for _, mx := range difftest.Mixes(true, mixes...) {
			in, w := difftest.MixWorkload(mx.M, 1200, seed, 14), difftest.Windows(mx.M, 700)
			want, _ := api(mx.Cond(), w, rootAdapt, in, true)
			if len(want.Ks) < 4 {
				t.Fatalf("%s: degenerate reference: %d adaptations", mx.Name, len(want.Ks))
			}
			for _, workers := range []int{2, 4} {
				for _, batch := range batches {
					rows = append(rows, row{name(mx.Name, workers, batch), want, func(t *testing.T) *difftest.Run {
						opts := []qdhj.JoinOption{qdhj.WithRemoteWorkers(daemons(t, workers, nil)...)}
						if batch > 0 {
							opts = append(opts, qdhj.WithFrameBatch(batch))
						}
						got, _ := api(mx.Cond(), w, rootAdapt, in, true, opts...)
						return got
					}})
				}
			}
		}
		return rows
	}
}

// planGraph compiles spec for cond.
func planGraph(t *testing.T, spec string, cond *join.Condition, w []stream.Time) *plan.Graph {
	t.Helper()
	g, err := plan.ParseSpec(spec, cond, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// joinPlan compiles spec for cond through the public API.
func joinPlan(t *testing.T, spec string, cond *join.Condition, w []stream.Time) *qdhj.Plan {
	t.Helper()
	p, err := qdhj.ParsePlan(spec, cond, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// traced points cfg's sinks at a fresh run that captures the results and
// the K trajectory.
func traced(cfg plan.ExecConfig) (*difftest.Run, plan.ExecConfig) {
	r := difftest.NewRun()
	r.Ks = []difftest.KStep{}
	cfg.Emit = r.Emit
	cfg.OnAdapt = func(ev core.AdaptEvent) { r.Adapt(difftest.KStep(ev)) }
	return r, cfg
}

// drive pushes in through ex, finishes it and records its result count and
// average K in r.
func drive(r *difftest.Run, ex plan.Executor, in stream.Batch) *difftest.Run {
	for _, e := range in {
		ex.Push(e)
	}
	ex.Finish()
	r.Count, r.AvgK = ex.Results(), ex.AvgK()
	return r
}

// planned runs in through the executor plan.Build compiles g into.
func planned(g *plan.Graph, cfg plan.ExecConfig, in stream.Batch) *difftest.Run {
	r, cfg := traced(cfg)
	return drive(r, plan.Build(g, cfg), in.Clone())
}

// supervised runs in through a supervised executor on g, which must
// recover: no terminal error, at least one restart.
func supervised(t *testing.T, g *plan.Graph, cfg plan.ExecConfig, scf plan.SuperviseConfig, in stream.Batch) *difftest.Run {
	t.Helper()
	r, cfg := traced(cfg)
	s := plan.NewSupervised(g, cfg, scf)
	drive(r, s, in.Clone())
	recovered(t, s.Err(), s.Restarts())
	return r
}

func recovered(t *testing.T, err error, restarts int) {
	t.Helper()
	if err != nil {
		t.Fatalf("supervised run went terminal: %v", err)
	}
	if restarts < 1 {
		t.Fatal("no restart recorded; the injector never fired")
	}
}

// capture points cfg's result sink and adaptation hook at a fresh run. The
// hook records each step with the per-scope Ks of *p, then calls onStep, if
// any, with the number of steps so far.
func capture(cfg *core.Config, p **core.Pipeline, onStep func(int)) *difftest.Run {
	r := difftest.NewRun()
	r.Ks, r.ScopeKs = []difftest.KStep{}, [][]stream.Time{}
	cfg.Emit = r.Emit
	cfg.OnAdapt = func(ev core.AdaptEvent) {
		r.Adapt(difftest.KStep(ev))
		r.ScopeKs = append(r.ScopeKs, slices.Clone((*p).CurrentKs()))
		if onStep != nil {
			onStep(len(r.Ks))
		}
	}
	return r
}

// Pipeline runs in through a pipeline on cfg and captures its results, K
// trajectory with the per-scope Ks, count and average K.
func Pipeline(cfg core.Config, in stream.Batch) *difftest.Run {
	var p *core.Pipeline
	r := capture(&cfg, &p, nil)
	p = core.New(cfg)
	return drive(r, p, in.Clone())
}

// Cut is where Resumed checkpoints: inside the adaptation hook of the
// Boundary-th step when Boundary > 0, else after the Tuple-th push.
type Cut struct{ Tuple, Boundary int }

// Resumed runs in through a pipeline on cfg up to cut, checkpoints it
// through a gob round trip, abandons it as a crash would, restores the
// state into a fresh pipeline, pushes the rest and returns the capture of
// both, as Pipeline's. A restored unsharded tree must capture exactly the
// state it was restored from, registers (the stages' ord counters
// included) and all; a sharded stage drops its expired-but-unpurged
// entries on the way back in.
func Resumed(t *testing.T, cfg core.Config, in stream.Batch, cut Cut) *difftest.Run {
	t.Helper()
	var p *core.Pipeline
	var st core.State
	var ta *fault.TupleArena
	captured := false
	checkpoint := func() {
		tt := fault.NewTupleTable()
		st, ta = difftest.GobRoundTrip(t, p.Checkpoint(tt), tt)
		captured = true
	}
	r := capture(&cfg, &p, func(step int) {
		if !captured && step == cut.Boundary {
			checkpoint()
		}
	})
	p = core.New(cfg)
	work := in.Clone()
	rest := -1
	for i, e := range work {
		p.Push(e)
		if cut.Boundary == 0 && i+1 == cut.Tuple {
			checkpoint()
		}
		if captured {
			rest = i + 1
			break
		}
	}
	if rest < 0 {
		t.Fatalf("cut %+v never reached", cut)
	}
	p.Abandon()

	p = core.New(cfg)
	if err := p.RestoreState(st, ta); err != nil {
		t.Fatal(err)
	}
	if p.Tree() != nil && !p.Tree().Sharded() {
		tt := fault.NewTupleTable()
		if again, _ := difftest.GobRoundTrip(t, p.Checkpoint(tt), tt); !reflect.DeepEqual(again.Tree, st.Tree) {
			t.Errorf("the restored tree's state differs from the checkpoint it was restored from")
		}
	}
	return drive(r, p, work[rest:])
}

// EachCut runs a short x3 feed through the flat pipeline twice — under the
// model policy, whose loop keeps the delay history, and under a static K,
// whose loop keeps none — and calls visit at every adaptation boundary and
// every 97th arrival with the loop's captured state and a constructor of a
// fresh pipeline of the same configuration.
func EachCut(t *testing.T, visit func(t *testing.T, history bool, st feedback.State, fresh func() *core.Pipeline)) {
	ds := gen.Synthetic3(gen.SynthConfig{Duration: 15 * stream.Second, Seed: 42})
	for _, history := range []bool{true, false} {
		t.Run(map[bool]string{true: "history", false: "history-free"}[history], func(t *testing.T) {
			cfg := core.Config{Windows: ds.Windows, Cond: ds.Cond, Adapt: adapt.Config{Gamma: 0.95, P: 5 * stream.Second, L: stream.Second}}
			if !history {
				cfg.Policy, cfg.InitialK = core.StaticPolicy(stream.Second), stream.Second
			}
			var p *core.Pipeline
			fresh := func() *core.Pipeline { return core.New(cfg) }
			cfg.OnAdapt = func(core.AdaptEvent) { visit(t, history, p.Loop().State(), fresh) }
			p = core.New(cfg)
			if p.Loop().ReadsHistory() != history {
				t.Fatalf("the loop reads the history: %v, want %v", !history, history)
			}
			for i, e := range ds.Arrivals.Clone() {
				p.Push(e)
				if i%97 == 96 {
					visit(t, history, p.Loop().State(), fresh)
				}
			}
			p.Finish()
			if p.Adaptations() < 10 {
				t.Fatalf("%d adaptation steps; the feed no longer exercises the loop", p.Adaptations())
			}
		})
	}
}

// sharded runs seq through an n-shard runtime in tiny batches, which widen
// the interleaving surface.
func sharded(cond *join.Condition, w []stream.Time, seq []*stream.Tuple, n, flushEvery int) *difftest.Run {
	return routed(seq, flushEvery, func(onOutOfOrder func(stream.Time)) core.Runtime {
		return shard.New(shard.Config{N: n, Cond: cond, Windows: w, Materialize: true, BatchSize: 7, OnOutOfOrder: onOutOfOrder})
	})
}

// networked runs seq through a session on n loopback worker daemons at the
// given frame batch, flushing every 97 tuples. Test cleanup closes the
// session on every exit path: one that panics would otherwise leave its
// connections open, and the daemons' cleanup would wait on them forever.
func networked(t *testing.T, cond *join.Condition, w []stream.Time, seq []*stream.Tuple, n, batch int) *difftest.Run {
	addrs := daemons(t, n, nil)
	return routed(seq, 97, func(onOutOfOrder func(stream.Time)) core.Runtime {
		s := qnet.NewSession(addrs, "net-test", shard.Config{Cond: cond, Windows: w, Materialize: true,
			BatchSize: batch, OnOutOfOrder: onOutOfOrder})
		t.Cleanup(s.Close)
		return s
	})
}

// routed runs seq through the runtime newRT builds around a fresh run's
// out-of-order sink, flushing every flushEvery tuples (never at 0), and
// returns the run: what difftest.Operator captures of one operator.
func routed(seq []*stream.Tuple, flushEvery int, newRT func(onOutOfOrder func(stream.Time)) core.Runtime) *difftest.Run {
	got := difftest.NewRun()
	rt := newRT(got.OnOutOfOrder)
	for i, e := range seq {
		rt.Route(e)
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			rt.FlushInterval(got.Record, got.Emit)
		}
	}
	rt.FlushInterval(got.Record, got.Emit)
	rt.Close()
	return got
}

// api runs in through a public-API Join on cond and captures its count, K
// trajectory and average K, and with deliver its results.
func api(cond *join.Condition, w []stream.Time, opt qdhj.Options, in stream.Batch, deliver bool, opts ...qdhj.JoinOption) (*difftest.Run, *qdhj.Join) {
	r := difftest.NewRun()
	r.Ks = []difftest.KStep{}
	opts = append(opts, qdhj.WithAdaptHook(func(ev qdhj.AdaptEvent) { r.Adapt(difftest.KStep(ev)) }))
	if deliver {
		opts = append(opts, qdhj.WithResults(r.Emit))
	}
	j := qdhj.NewJoin(cond, w, opt, opts...)
	for _, e := range in.Clone() {
		j.Push(e)
	}
	j.Close()
	r.Count, r.AvgK = j.Results(), j.AvgK()
	return r, j
}

// resumedJoin runs in through a Join on spec up to half the feed — to the
// next adaptation boundary after it when atBoundary — checkpoints it, sends
// the snapshot through its wire format, whose signature must survive,
// closes the original unheard, restores a Join from the snapshot and
// pushes the rest.
func resumedJoin(t *testing.T, spec string, mk func() *join.Condition, w []stream.Time, opt qdhj.Options, in stream.Batch, atBoundary bool) *difftest.Run {
	r := difftest.NewRun()
	r.Ks = []difftest.KStep{}
	mute, boundary := false, false
	opts := func(cond *join.Condition) []qdhj.JoinOption {
		return []qdhj.JoinOption{
			qdhj.WithPlan(joinPlan(t, spec, cond, w)),
			qdhj.WithResults(func(res qdhj.Result) {
				if !mute {
					r.Emit(res)
				}
			}),
			qdhj.WithAdaptHook(func(ev qdhj.AdaptEvent) {
				if !mute {
					r.Adapt(difftest.KStep(ev))
				}
				boundary = true
			}),
		}
	}
	in = in.Clone()
	cond := mk()
	j1 := qdhj.NewJoin(cond, w, opt, opts(cond)...)
	cut := -1
	for i, e := range in {
		j1.Push(e)
		if i >= len(in)/2 && (!atBoundary || boundary) {
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		t.Fatal("no checkpoint point reached")
	}
	snap, err := j1.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	snap2, err := qdhj.ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap2.Signature() != snap.Signature() {
		t.Fatalf("signature changed over the wire: %q vs %q", snap2.Signature(), snap.Signature())
	}
	mute = true // the abandoned original's flush must not record
	j1.Close()
	mute = false

	cond = mk()
	j2, err := qdhj.Restore(snap2, cond, w, opt, opts(cond)...)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, e := range in[cut:] {
		j2.Push(e)
	}
	j2.Close()
	r.Count, r.AvgK = j2.Results(), j2.AvgK()
	return r
}
