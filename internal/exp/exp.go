// Package exp reproduces the evaluation of Sec. VI: one runner per table and
// figure of the paper. Each runner prints the same rows/series the paper
// reports and returns the structured numbers so benchmarks and tests can
// assert the qualitative shapes (who wins, by roughly what factor, where the
// trends point).
package exp

import (
	"fmt"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Dataset is a generated workload plus its ground truth.
type Dataset struct {
	*gen.Dataset
	Truth *oracle.Index
}

// Keys of the three evaluation datasets, mirroring the paper's naming.
const (
	KeyX2 = "x2" // (D×2real simulated, Q×2) — soccer proximity join
	KeyX3 = "x3" // (D×3syn, Q×3) — 3-way equi join
	KeyX4 = "x4" // (D×4syn, Q×4) — 4-way star join
)

// AllKeys lists the dataset keys in paper order.
func AllKeys() []string { return []string{KeyX2, KeyX3, KeyX4} }

// Prepare generates dataset `key` spanning the given number of logical
// minutes and computes its ground truth.
func Prepare(key string, minutes float64, seed int64) *Dataset {
	dur := stream.Time(minutes * float64(stream.Minute))
	var ds *gen.Dataset
	switch key {
	case KeyX2:
		ds = gen.Soccer(gen.SoccerConfig{Duration: dur, Seed: seed})
	case KeyX3:
		ds = gen.Synthetic3(gen.SynthConfig{Duration: dur, Seed: seed})
	case KeyX4:
		ds = gen.Synthetic4(gen.SynthConfig{Duration: dur, Seed: seed})
	default:
		panic("exp: unknown dataset key " + key)
	}
	truth := oracle.TrueResults(ds.Cond, ds.Windows, ds.Arrivals)
	return &Dataset{Dataset: ds, Truth: truth}
}

// Summary is the outcome of one pipeline run on one dataset.
type Summary struct {
	Dataset    string
	Policy     string
	Gamma      float64
	AvgK       float64 // average applied buffer size, ms
	MeanRecall float64
	PhiGamma   float64 // Φ(Γ), percent
	Phi99      float64 // Φ(.99Γ), percent
	PhiOK      bool
	Produced   int64
	TrueTotal  int64
	Series     *metrics.Series

	AdaptSteps int64
	AdaptIters int64
	AdaptTotal time.Duration
}

// AvgAdaptTime returns the mean wall-clock duration of one adaptation step.
func (s Summary) AvgAdaptTime() time.Duration {
	if s.AdaptSteps == 0 {
		return 0
	}
	return s.AdaptTotal / time.Duration(s.AdaptSteps)
}

// OverallRecall is produced/true over the whole run.
func (s Summary) OverallRecall() float64 {
	if s.TrueTotal == 0 {
		return 0
	}
	return float64(s.Produced) / float64(s.TrueTotal)
}

// Run executes one pipeline configuration over the dataset and collects the
// paper's metrics: γ(P) is measured right before every adaptation step and
// summarized into Φ(Γ) and Φ(.99Γ); the applied K is averaged over all
// adaptation intervals.
func Run(ds *Dataset, acfg adapt.Config, policy feedback.PolicyFactory, statsOpts ...stats.Option) Summary {
	acfg = acfg.Normalize()
	tracker := metrics.NewRecallTracker(acfg.P, ds.Truth)
	series := metrics.NewSeries(acfg.P)

	cfg := core.Config{
		Windows:    ds.Windows,
		Cond:       ds.Cond,
		Adapt:      acfg,
		Policy:     policy,
		StatsOpts:  statsOpts,
		EmitCounts: tracker.AddResults,
		OnAdapt: func(ev core.AdaptEvent) {
			// γ(P) is measured right before each adaptation, anchored at
			// the output watermark (see core.Pipeline.adaptStep).
			if r, ok := tracker.Measure(ev.OutT); ok {
				series.Add(ev.OutT, r)
			}
		},
	}
	p := core.New(cfg)
	p.Run(ds.Arrivals.Clone())

	s := Summary{
		Dataset:    ds.Name,
		Policy:     "",
		Gamma:      acfg.Gamma,
		AvgK:       p.AvgK(),
		MeanRecall: series.Mean(),
		Produced:   p.Results(),
		TrueTotal:  ds.Truth.Total(),
		Series:     series,
	}
	if phi, ok := series.Phi(acfg.Gamma); ok {
		s.PhiGamma = phi
		s.PhiOK = true
	}
	if phi, ok := series.Phi(0.99 * acfg.Gamma); ok {
		s.Phi99 = phi
	}
	if mdl := p.Model(); mdl != nil {
		s.AdaptSteps, s.AdaptIters, s.AdaptTotal = mdl.AdaptStats()
	}
	return s
}

// fmtK renders a buffer size in seconds with two decimals, as the paper
// plots "Avg. K (sec)".
func fmtK(ms float64) string { return fmt.Sprintf("%.2f", ms/1000) }
