package exp

import (
	"fmt"
	"io"

	"repro/internal/adapt"
	"repro/internal/feedback"
	"repro/internal/stats"
	"repro/internal/stream"
)

// defaultCfg returns the paper's default parameter configuration (Sec. VI):
// P = 1 min, b = 10 ms, g = 10 ms, L = 1 s.
func defaultCfg(gamma float64) adapt.Config {
	return adapt.Config{
		Gamma: gamma,
		P:     stream.Minute,
		L:     stream.Second,
		B:     10 * stream.Millisecond,
		G:     10 * stream.Millisecond,
	}
}

// GammaGrid is the set of recall requirements examined in Fig. 7 and 11.
var GammaGrid = []float64{0.9, 0.95, 0.99, 0.999}

// Fig6 runs the No-K-slack baseline on every dataset and prints the recall
// time series γ(P = 1 min), reproducing Fig. 6.
func Fig6(w io.Writer, datasets []*Dataset) map[string]Summary {
	fmt.Fprintln(w, "== Fig. 6: recall of join results produced by the No-K-slack baseline ==")
	out := map[string]Summary{}
	for _, ds := range datasets {
		s := Run(ds, defaultCfg(0), feedback.NoKPolicy())
		s.Policy = "No-K-slack"
		out[ds.Name] = s
		fmt.Fprintf(w, "\n-- %s --\n   t(sec)  recall γ(P=1min)\n", ds.Name)
		step := len(s.Series.Measurements)/12 + 1
		for i := 0; i < len(s.Series.Measurements); i += step {
			m := s.Series.Measurements[i]
			fmt.Fprintf(w, "  %7d  %.3f\n", m.Now/stream.Second, m.Recall)
		}
		fmt.Fprintf(w, "  mean recall: %.3f  (overall %d/%d = %.3f)\n",
			s.MeanRecall, s.Produced, s.TrueTotal, s.OverallRecall())
	}
	return out
}

// Table2 runs the Max-K-slack baseline on every dataset and prints its
// average K and average γ(P), reproducing Table II.
func Table2(w io.Writer, datasets []*Dataset) map[string]Summary {
	fmt.Fprintln(w, "== Table II: results of the Max-K-slack baseline ==")
	fmt.Fprintf(w, "%-22s  %-12s  %-10s\n", "dataset", "Avg. K (sec)", "Avg. γ(P)")
	out := map[string]Summary{}
	for _, ds := range datasets {
		s := Run(ds, defaultCfg(0), feedback.MaxKPolicy())
		s.Policy = "Max-K-slack"
		out[ds.Name] = s
		fmt.Fprintf(w, "%-22s  %-12s  %.3f\n", ds.Name, fmtK(s.AvgK), s.MeanRecall)
	}
	return out
}

// Fig7Row is one (dataset, Γ, strategy) cell of Fig. 7.
type Fig7Row struct {
	Dataset  string
	Gamma    float64
	Strategy adapt.Strategy
	Summary
}

// Fig7 sweeps the user-specified recall requirement Γ for both selectivity
// strategies on every dataset, reproducing Fig. 7 (avg K, Φ(Γ), Φ(.99Γ))
// with the Max-K-slack average K as reference.
func Fig7(w io.Writer, datasets []*Dataset) []Fig7Row {
	fmt.Fprintln(w, "== Fig. 7: effectiveness under varying recall requirements Γ ==")
	var rows []Fig7Row
	for _, ds := range datasets {
		maxk := Run(ds, defaultCfg(0), feedback.MaxKPolicy())
		fmt.Fprintf(w, "\n-- %s (Max-K-slack avg K = %s s) --\n", ds.Name, fmtK(maxk.AvgK))
		fmt.Fprintf(w, "%-8s  %-9s  %-12s  %-8s  %-9s\n", "Γ", "strategy", "Avg. K (sec)", "Φ(Γ)%", "Φ(.99Γ)%")
		for _, gamma := range GammaGrid {
			for _, strat := range []adapt.Strategy{adapt.EqSel, adapt.NonEqSel} {
				cfg := defaultCfg(gamma)
				cfg.Strategy = strat
				s := Run(ds, cfg, feedback.ModelPolicy())
				s.Policy = "Model(" + strat.String() + ")"
				rows = append(rows, Fig7Row{Dataset: ds.Name, Gamma: gamma, Strategy: strat, Summary: s})
				fmt.Fprintf(w, "%-8g  %-9s  %-12s  %-8.1f  %-9.1f\n",
					gamma, strat, fmtK(s.AvgK), s.PhiGamma, s.Phi99)
			}
		}
	}
	return rows
}

// Fig8 sweeps the result-quality measurement period P for Γ ∈ {0.95, 0.99}
// on the x2 and x3 workloads, reproducing Fig. 8.
func Fig8(w io.Writer, datasets []*Dataset) []Fig7Row {
	fmt.Fprintln(w, "== Fig. 8: effectiveness under varying measurement periods P ==")
	periods := []stream.Time{30 * stream.Second, stream.Minute, 3 * stream.Minute, 5 * stream.Minute}
	var rows []Fig7Row
	for _, ds := range datasets {
		fmt.Fprintf(w, "\n-- %s --\n", ds.Name)
		fmt.Fprintf(w, "%-8s  %-6s  %-12s  %-8s  %-9s\n", "P (sec)", "Γ", "Avg. K (sec)", "Φ(Γ)%", "Φ(.99Γ)%")
		for _, p := range periods {
			for _, gamma := range []float64{0.95, 0.99} {
				cfg := defaultCfg(gamma)
				cfg.P = p
				s := Run(ds, cfg, feedback.ModelPolicy())
				s.Policy = "Model(NonEqSel)"
				rows = append(rows, Fig7Row{Dataset: ds.Name, Gamma: gamma, Summary: s})
				fmt.Fprintf(w, "%-8d  %-6g  %-12s  %-8.1f  %-9.1f\n",
					p/stream.Second, gamma, fmtK(s.AvgK), s.PhiGamma, s.Phi99)
			}
		}
	}
	return rows
}

// Fig9 sweeps the adaptation interval L, reproducing Fig. 9.
func Fig9(w io.Writer, datasets []*Dataset) []Fig7Row {
	fmt.Fprintln(w, "== Fig. 9: effect of the adaptation interval L ==")
	intervals := []stream.Time{100, 500, 1000, 5000, 10000}
	var rows []Fig7Row
	for _, ds := range datasets {
		fmt.Fprintf(w, "\n-- %s --\n", ds.Name)
		fmt.Fprintf(w, "%-8s  %-6s  %-12s  %-8s  %-9s\n", "L (sec)", "Γ", "Avg. K (sec)", "Φ(Γ)%", "Φ(.99Γ)%")
		for _, l := range intervals {
			for _, gamma := range []float64{0.95, 0.99} {
				cfg := defaultCfg(gamma)
				cfg.L = l
				s := Run(ds, cfg, feedback.ModelPolicy())
				rows = append(rows, Fig7Row{Dataset: ds.Name, Gamma: gamma, Summary: s})
				fmt.Fprintf(w, "%-8.1f  %-6g  %-12s  %-8.1f  %-9.1f\n",
					float64(l)/1000, gamma, fmtK(s.AvgK), s.PhiGamma, s.Phi99)
			}
		}
	}
	return rows
}

// Fig10 sweeps the K-search granularity g, reproducing Fig. 10.
func Fig10(w io.Writer, datasets []*Dataset) []Fig7Row {
	fmt.Fprintln(w, "== Fig. 10: effect of the K-search granularity g ==")
	grans := []stream.Time{1, 10, 100, 1000}
	var rows []Fig7Row
	for _, ds := range datasets {
		fmt.Fprintf(w, "\n-- %s --\n", ds.Name)
		fmt.Fprintf(w, "%-8s  %-6s  %-12s  %-8s  %-9s\n", "g (ms)", "Γ", "Avg. K (sec)", "Φ(Γ)%", "Φ(.99Γ)%")
		for _, g := range grans {
			for _, gamma := range []float64{0.95, 0.99} {
				cfg := defaultCfg(gamma)
				cfg.G = g
				s := Run(ds, cfg, feedback.ModelPolicy())
				rows = append(rows, Fig7Row{Dataset: ds.Name, Gamma: gamma, Summary: s})
				fmt.Fprintf(w, "%-8d  %-6g  %-12s  %-8.1f  %-9.1f\n",
					g, gamma, fmtK(s.AvgK), s.PhiGamma, s.Phi99)
			}
		}
	}
	return rows
}

// Fig11 measures the wall-clock time of one adaptation step for varying g
// and Γ on every dataset, reproducing Fig. 11.
func Fig11(w io.Writer, datasets []*Dataset) []Fig7Row {
	fmt.Fprintln(w, "== Fig. 11: time needed to determine the optimal K per adaptation step ==")
	grans := []stream.Time{1, 10, 100, 1000}
	var rows []Fig7Row
	for _, ds := range datasets {
		fmt.Fprintf(w, "\n-- %s --\n", ds.Name)
		fmt.Fprintf(w, "%-8s  %-8s  %-16s  %-12s\n", "g (ms)", "Γ", "avg adapt time", "iters/step")
		for _, g := range grans {
			for _, gamma := range GammaGrid {
				cfg := defaultCfg(gamma)
				cfg.G = g
				s := Run(ds, cfg, feedback.ModelPolicy())
				rows = append(rows, Fig7Row{Dataset: ds.Name, Gamma: gamma, Summary: s})
				iters := float64(0)
				if s.AdaptSteps > 0 {
					iters = float64(s.AdaptIters) / float64(s.AdaptSteps)
				}
				fmt.Fprintf(w, "%-8d  %-8g  %-16v  %-12.1f\n", g, gamma, s.AvgAdaptTime(), iters)
			}
		}
	}
	return rows
}

// Ablations runs the design-choice ablations called out in DESIGN.md §5:
// EqSel vs NonEqSel, Γ′ calibration on/off, and ADWIN vs fixed R^stat.
func Ablations(w io.Writer, datasets []*Dataset) []Fig7Row {
	fmt.Fprintln(w, "== Ablations: selectivity strategy, Γ′ calibration, R^stat sizing ==")
	var rows []Fig7Row
	const gamma = 0.95
	type variant struct {
		name   string
		mut    func(*adapt.Config)
		sOpts  []stats.Option
		policy feedback.PolicyFactory
	}
	variants := []variant{
		{name: "NonEqSel (full model)", mut: func(*adapt.Config) {}, policy: feedback.ModelPolicy()},
		{name: "EqSel", mut: func(c *adapt.Config) { c.Strategy = adapt.EqSel }, policy: feedback.ModelPolicy()},
		{name: "no Γ' calibration", mut: func(c *adapt.Config) { c.NoCalibration = true }, policy: feedback.ModelPolicy()},
		{name: "fixed R^stat (1024)", mut: func(*adapt.Config) {},
			sOpts: []stats.Option{stats.WithFixedHistory(1024)}, policy: feedback.ModelPolicy()},
	}
	for _, ds := range datasets {
		fmt.Fprintf(w, "\n-- %s (Γ = %g) --\n", ds.Name, gamma)
		fmt.Fprintf(w, "%-22s  %-12s  %-8s  %-9s\n", "variant", "Avg. K (sec)", "Φ(Γ)%", "Φ(.99Γ)%")
		for _, v := range variants {
			cfg := defaultCfg(gamma)
			v.mut(&cfg)
			s := Run(ds, cfg, v.policy, v.sOpts...)
			s.Policy = v.name
			rows = append(rows, Fig7Row{Dataset: ds.Name, Gamma: gamma, Summary: s})
			fmt.Fprintf(w, "%-22s  %-12s  %-8.1f  %-9.1f\n", v.name, fmtK(s.AvgK), s.PhiGamma, s.Phi99)
		}
	}
	return rows
}
