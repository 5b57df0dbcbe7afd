// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. VI). Each benchmark runs the corresponding experiment on a short
// stream horizon and reports, besides ns/op, the experiment's headline
// numbers as custom metrics so `go test -bench` output carries the
// reproduced results:
//
//	avgK_ms      — average applied buffer size (the paper's latency proxy)
//	phi99_pct    — Φ(.99Γ): fraction of γ(P) measurements ≥ 0.99·Γ
//	recall       — mean measured γ(P)
//
// Absolute throughput differs from the authors' SAP ESP testbed; the shapes
// (who wins, by what factor, how metrics move with Γ, P, L, g) are the
// reproduction target. See EXPERIMENTS.md for the full-horizon numbers.
package qdhj

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/stream"
)

// benchMinutes keeps bench iterations fast; the cmd/qdhjbench tool runs the
// full horizons.
const benchMinutes = 1.5

var (
	dsOnce sync.Once
	dsAll  []*exp.Dataset
)

// datasets lazily prepares the three evaluation workloads once per process.
func datasets(b *testing.B) []*exp.Dataset {
	b.Helper()
	dsOnce.Do(func() {
		for _, k := range exp.AllKeys() {
			dsAll = append(dsAll, exp.Prepare(k, benchMinutes, 42))
		}
	})
	return dsAll
}

func defaultCfg(gamma float64) adapt.Config {
	return adapt.Config{Gamma: gamma, P: stream.Minute, L: stream.Second,
		B: 10 * stream.Millisecond, G: 10 * stream.Millisecond}
}

// BenchmarkFig6_NoKslackRecall reproduces Fig. 6: the recall produced with
// no intra-stream disorder handling, per dataset.
func BenchmarkFig6_NoKslackRecall(b *testing.B) {
	for _, ds := range datasets(b) {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			var s exp.Summary
			for i := 0; i < b.N; i++ {
				s = exp.Run(ds, defaultCfg(0), core.NoKPolicy())
			}
			b.ReportMetric(s.MeanRecall, "recall")
			b.ReportMetric(float64(len(ds.Arrivals)*b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkTable2_MaxKslack reproduces Table II: average K and recall of the
// Max-K-slack baseline.
func BenchmarkTable2_MaxKslack(b *testing.B) {
	for _, ds := range datasets(b) {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			var s exp.Summary
			for i := 0; i < b.N; i++ {
				s = exp.Run(ds, defaultCfg(0), core.MaxKPolicy())
			}
			b.ReportMetric(s.AvgK, "avgK_ms")
			b.ReportMetric(s.MeanRecall, "recall")
		})
	}
}

// BenchmarkFig7_VaryGamma reproduces Fig. 7: avg K and requirement
// fulfillment under varying Γ for both selectivity strategies.
func BenchmarkFig7_VaryGamma(b *testing.B) {
	for _, ds := range datasets(b) {
		for _, gamma := range []float64{0.9, 0.99} {
			for _, strat := range []adapt.Strategy{adapt.EqSel, adapt.NonEqSel} {
				ds, gamma, strat := ds, gamma, strat
				b.Run(ds.Name+"/Γ="+fmtF(gamma)+"/"+strat.String(), func(b *testing.B) {
					cfg := defaultCfg(gamma)
					cfg.Strategy = strat
					var s exp.Summary
					for i := 0; i < b.N; i++ {
						s = exp.Run(ds, cfg, core.ModelPolicy())
					}
					b.ReportMetric(s.AvgK, "avgK_ms")
					b.ReportMetric(s.Phi99, "phi99_pct")
				})
			}
		}
	}
}

// BenchmarkFig8_VaryP reproduces Fig. 8: varying the result-quality
// measurement period P.
func BenchmarkFig8_VaryP(b *testing.B) {
	ds := datasets(b)[0] // x2, as in the paper's left panel
	for _, p := range []stream.Time{30 * stream.Second, stream.Minute} {
		p := p
		b.Run("P="+p.String(), func(b *testing.B) {
			cfg := defaultCfg(0.95)
			cfg.P = p
			var s exp.Summary
			for i := 0; i < b.N; i++ {
				s = exp.Run(ds, cfg, core.ModelPolicy())
			}
			b.ReportMetric(s.AvgK, "avgK_ms")
			b.ReportMetric(s.Phi99, "phi99_pct")
		})
	}
}

// BenchmarkFig9_VaryL reproduces Fig. 9: varying the adaptation interval L.
func BenchmarkFig9_VaryL(b *testing.B) {
	ds := datasets(b)[0]
	for _, l := range []stream.Time{100, 1000, 5000} {
		l := l
		b.Run("L="+l.String(), func(b *testing.B) {
			cfg := defaultCfg(0.95)
			cfg.L = l
			var s exp.Summary
			for i := 0; i < b.N; i++ {
				s = exp.Run(ds, cfg, core.ModelPolicy())
			}
			b.ReportMetric(s.AvgK, "avgK_ms")
			b.ReportMetric(s.Phi99, "phi99_pct")
		})
	}
}

// BenchmarkFig10_VaryG reproduces Fig. 10: varying the K-search granularity.
func BenchmarkFig10_VaryG(b *testing.B) {
	ds := datasets(b)[0]
	for _, g := range []stream.Time{10, 100, 1000} {
		g := g
		b.Run("g="+g.String(), func(b *testing.B) {
			cfg := defaultCfg(0.95)
			cfg.G = g
			var s exp.Summary
			for i := 0; i < b.N; i++ {
				s = exp.Run(ds, cfg, core.ModelPolicy())
			}
			b.ReportMetric(s.AvgK, "avgK_ms")
			b.ReportMetric(s.Phi99, "phi99_pct")
		})
	}
}

// BenchmarkFig11_AdaptTime reproduces Fig. 11: the wall-clock time of one
// model-based adaptation step as a function of g and Γ.
func BenchmarkFig11_AdaptTime(b *testing.B) {
	ds := datasets(b)[1] // x3
	for _, g := range []stream.Time{10, 100} {
		for _, gamma := range []float64{0.9, 0.999} {
			g, gamma := g, gamma
			b.Run("g="+g.String()+"/Γ="+fmtF(gamma), func(b *testing.B) {
				cfg := defaultCfg(gamma)
				cfg.G = g
				var s exp.Summary
				for i := 0; i < b.N; i++ {
					s = exp.Run(ds, cfg, core.ModelPolicy())
				}
				b.ReportMetric(float64(s.AvgAdaptTime().Microseconds()), "adapt_µs")
				if s.AdaptSteps > 0 {
					b.ReportMetric(float64(s.AdaptIters)/float64(s.AdaptSteps), "iters/step")
				}
			})
		}
	}
}

// BenchmarkAblationCalibration measures the Γ′-calibration ablation
// (DESIGN.md §5): model policy with and without Eq. (7).
func BenchmarkAblationCalibration(b *testing.B) {
	ds := datasets(b)[0]
	for _, noCal := range []bool{false, true} {
		noCal := noCal
		name := "calibrated"
		if noCal {
			name = "raw-gamma"
		}
		b.Run(name, func(b *testing.B) {
			cfg := defaultCfg(0.95)
			cfg.NoCalibration = noCal
			var s exp.Summary
			for i := 0; i < b.N; i++ {
				s = exp.Run(ds, cfg, core.ModelPolicy())
			}
			b.ReportMetric(s.AvgK, "avgK_ms")
			b.ReportMetric(s.Phi99, "phi99_pct")
		})
	}
}

// BenchmarkAblationBasicWindow measures the estimation-conservatism knob b
// (Eq. 3): a coarse basic window inflates K.
func BenchmarkAblationBasicWindow(b *testing.B) {
	ds := datasets(b)[1]
	for _, bw := range []stream.Time{10, 1000, 5000} {
		bw := bw
		b.Run("b="+bw.String(), func(b *testing.B) {
			cfg := defaultCfg(0.95)
			cfg.B = bw
			var s exp.Summary
			for i := 0; i < b.N; i++ {
				s = exp.Run(ds, cfg, core.ModelPolicy())
			}
			b.ReportMetric(s.AvgK, "avgK_ms")
		})
	}
}

// BenchmarkOperatorThroughput measures raw MSWJ operator throughput
// (tuples/s) on the three workloads without disorder handling, isolating
// the join executor.
func BenchmarkOperatorThroughput(b *testing.B) {
	for _, ds := range datasets(b) {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			in := ds.Arrivals
			b.ResetTimer()
			var n int64
			for i := 0; i < b.N; i++ {
				j := NewJoin(ds.Cond, ds.Windows, Options{Policy: NoSlack})
				for _, e := range in {
					j.Push(e)
				}
				j.Close()
				n = j.Results()
			}
			b.ReportMetric(float64(len(in)*b.N)/b.Elapsed().Seconds(), "tuples/s")
			_ = n
		})
	}
}

// BenchmarkShardedOperatorThroughput measures the partition-parallel
// execution path (WithShards) against the single-threaded operator above,
// per workload and shard count. The planner picks equi hashing for x3,
// band range cells for x2 and a partial-equi/broadcast hybrid for x4.
func BenchmarkShardedOperatorThroughput(b *testing.B) {
	for _, ds := range datasets(b) {
		for _, shards := range []int{2, 4} {
			ds, shards := ds, shards
			b.Run(fmt.Sprintf("%s/shards=%d", ds.Name, shards), func(b *testing.B) {
				in := ds.Arrivals
				b.ResetTimer()
				var n int64
				for i := 0; i < b.N; i++ {
					j := NewJoin(ds.Cond, ds.Windows, Options{Policy: NoSlack}, WithShards(shards))
					for _, e := range in {
						j.Push(e)
					}
					j.Close()
					n = j.Results()
				}
				b.ReportMetric(float64(len(in)*b.N)/b.Elapsed().Seconds(), "tuples/s")
				_ = n
			})
		}
	}
}

var (
	treeBenchOnce sync.Once
	treeBenchIn   stream.Batch
	treeBenchMaxD Time
)

// treeBenchWorkload builds the tree benchmark feed once per process: a
// sparse-key disordered 3-way equi join (a tree deployment suits
// low-selectivity joins — dense joins favor the MJoin operator, measured by
// BenchmarkOperatorThroughput above), with asymmetric per-stream delays so
// the per-stage mode has something to exploit.
func treeBenchWorkload() (stream.Batch, Time) {
	treeBenchOnce.Do(func() {
		treeBenchIn = gen.SparseEqui3(20000, 17, 500, [3]Time{150, 150, 2500})
		treeBenchMaxD, _ = treeBenchIn.MaxDelay()
	})
	return treeBenchIn, treeBenchMaxD
}

// BenchmarkTreeThroughput measures the binary-tree deployment (Sec. V)
// across its three adaptation modes: fixed-K at the feed's max delay, the
// global Same-K feedback loop, and per-stage adaptive K. The buffered-delay
// sum rides along as the latency metric the per-stage policy exists to
// shrink on asymmetric-delay inputs like this one.
func BenchmarkTreeThroughput(b *testing.B) {
	aopt := Options{Gamma: 0.95, Period: 30 * Second, Interval: Second}
	modes := []struct {
		name string
		opts []TreeOption
	}{
		{"fixed", nil},
		{"same-k", []TreeOption{WithTreeAdaptation(aopt)}},
		{"per-stage", []TreeOption{WithTreeAdaptation(aopt), WithPerStageK()}},
	}
	in, maxD := treeBenchWorkload()
	windows := []Time{2 * Second, 2 * Second, 2 * Second}
	for _, mode := range modes {
		mode := mode
		initialK := Time(0)
		if mode.name == "fixed" {
			initialK = maxD
		}
		b.Run(mode.name, func(b *testing.B) {
			b.ResetTimer()
			var sumBufK float64
			for i := 0; i < b.N; i++ {
				j := NewTreeJoin(EquiChain(3, 0), windows, initialK, nil, mode.opts...)
				for _, e := range in {
					j.Push(e)
				}
				j.Close()
				sumBufK = j.BufferedDelaySum()
			}
			b.ReportMetric(float64(len(in)*b.N)/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(sumBufK/1000, "sumBufK_s")
		})
	}
}

// BenchmarkPipelineEndToEnd measures the full framework (statistics,
// profiling, adaptation) against the operator-only baseline above.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for _, ds := range datasets(b) {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			var s exp.Summary
			for i := 0; i < b.N; i++ {
				s = exp.Run(ds, defaultCfg(0.95), core.ModelPolicy())
			}
			b.ReportMetric(float64(len(ds.Arrivals)*b.N)/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(s.AvgK, "avgK_ms")
		})
	}
}

// BenchmarkMultiQueryThroughput measures the shared-window multi-query
// engine serving N identical queries against N independent Joins each
// replaying the same feed. tuples/s is the aggregate rate at which the
// deployment serves all N queries with one pass worth of input; the shared
// shape's per-arrival cost grows with distinct probe prefixes, not N.
func BenchmarkMultiQueryThroughput(b *testing.B) {
	in := gen.SparseEqui3(8000, 17, 500, [3]Time{150, 150, 150})
	windows := []Time{2 * Second, 2 * Second, 2 * Second}
	for _, nq := range []int{1, 8, 64} {
		nq := nq
		b.Run(fmt.Sprintf("shared/queries=%d", nq), func(b *testing.B) {
			var results int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mj := NewMultiJoin(3)
				mqs := make([]*MultiQuery, nq)
				for qi := range mqs {
					mqs[qi] = mj.Add(EquiChain(3, 0), windows, Options{Policy: NoSlack})
				}
				for _, e := range in {
					mj.Push(e)
				}
				mj.Close()
				results = mqs[0].Results()
			}
			b.ReportMetric(float64(len(in)*b.N)/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(float64(results), "results")
		})
		b.Run(fmt.Sprintf("independent/queries=%d", nq), func(b *testing.B) {
			var results int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for qi := 0; qi < nq; qi++ {
					j := NewJoin(EquiChain(3, 0), windows, Options{Policy: NoSlack})
					for _, e := range in {
						j.Push(e)
					}
					j.Close()
					results = j.Results()
				}
			}
			b.ReportMetric(float64(len(in)*b.N)/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(float64(results), "results")
		})
	}
}

func fmtF(f float64) string {
	switch f {
	case 0.9:
		return "0.9"
	case 0.95:
		return "0.95"
	case 0.99:
		return "0.99"
	case 0.999:
		return "0.999"
	}
	return "x"
}
