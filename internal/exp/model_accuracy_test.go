package exp

import (
	"math"
	"testing"

	"repro/internal/adapt"
	"repro/internal/feedback"
	"repro/internal/stats"
	"repro/internal/stream"
)

// TestModelPredictionAccuracy validates Eq. (5) end to end: for a stationary
// workload, the analytical recall estimate at a fixed K must track the
// recall actually measured when running with that K. This is the property
// the whole adaptation scheme rests on.
func TestModelPredictionAccuracy(t *testing.T) {
	ds := prepared(t, KeyX3)
	for _, k := range []stream.Time{0, 500, 2000, 8000} {
		cfg := adapt.Config{Gamma: 0, P: 30_000, L: 1000, Strategy: adapt.EqSel}
		s := Run(ds, cfg, feedback.StaticPolicy(k))
		measured := s.MeanRecall

		// Rebuild the model over the same stream statistics: replay the
		// arrivals into a fresh stats manager (the pipeline's internal one
		// is not exposed), then evaluate Eq. (5).
		st := stats.NewManager(ds.M, cfg.Normalize().G)
		for _, e := range ds.Arrivals {
			st.Observe(e)
		}
		mdl := adapt.NewModel(cfg, ds.Windows, st, nil)
		predicted := mdl.EstimateRecall(k, nil)

		if math.Abs(predicted-measured) > 0.12 {
			t.Fatalf("K=%v: model predicts %.3f, measured %.3f", k, predicted, measured)
		}
	}
}
