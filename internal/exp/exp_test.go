package exp

import (
	"io"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/feedback"
)

// short shared datasets for harness tests (1 simulated minute).
var testDS = map[string]*Dataset{}

func prepared(t testing.TB, key string) *Dataset {
	t.Helper()
	if ds, ok := testDS[key]; ok {
		return ds
	}
	ds := Prepare(key, 1.5, 7)
	testDS[key] = ds
	return ds
}

func TestPrepareKeys(t *testing.T) {
	for _, k := range AllKeys() {
		ds := prepared(t, k)
		if len(ds.Arrivals) == 0 || ds.Truth.Total() == 0 {
			t.Fatalf("%s: empty dataset or truth", k)
		}
		if ds.Cond == nil || len(ds.Windows) != ds.M {
			t.Fatalf("%s: malformed dataset", k)
		}
	}
}

func TestPrepareUnknownKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Prepare("nope", 1, 1)
}

func TestRunProducesSummary(t *testing.T) {
	ds := prepared(t, KeyX3)
	cfg := adapt.Config{Gamma: 0.9, P: 30_000, L: 1000}
	s := Run(ds, cfg, feedback.ModelPolicy())
	if s.Produced <= 0 || s.TrueTotal <= 0 {
		t.Fatalf("no results: %+v", s)
	}
	if s.Produced > s.TrueTotal {
		t.Fatalf("produced %d exceeds truth %d — correctness violation", s.Produced, s.TrueTotal)
	}
	if s.AdaptSteps == 0 {
		t.Fatal("model policy must record adaptation steps")
	}
	if !s.PhiOK {
		t.Fatal("expected usable recall measurements over 1.5 minutes")
	}
	if s.OverallRecall() < 0.5 {
		t.Fatalf("suspiciously low overall recall %v", s.OverallRecall())
	}
}

// TestBaselineShapeHolds asserts the paper's core comparison on a small
// horizon: No-K-slack loses results, Max-K-slack is near-complete with a
// large buffer, and the model policy at Γ=0.9 uses a much smaller buffer.
func TestBaselineShapeHolds(t *testing.T) {
	ds := prepared(t, KeyX3)
	cfg := adapt.Config{Gamma: 0.9, P: 30_000, L: 1000}

	nok := Run(ds, cfg, feedback.NoKPolicy())
	maxk := Run(ds, cfg, feedback.MaxKPolicy())
	model := Run(ds, cfg, feedback.ModelPolicy())

	if nok.MeanRecall > 0.97 {
		t.Fatalf("No-K recall %v too high — dataset lacks disorder", nok.MeanRecall)
	}
	if maxk.MeanRecall < 0.98 {
		t.Fatalf("Max-K recall %v too low", maxk.MeanRecall)
	}
	if model.AvgK > 0.6*maxk.AvgK {
		t.Fatalf("model avg K %v not clearly below Max-K %v", model.AvgK, maxk.AvgK)
	}
	if phi, ok := model.Series.Phi(0.99 * 0.9); !ok || phi < 80 {
		t.Fatalf("model Φ(.99Γ) = %v (ok=%v), want ≥80%%", phi, ok)
	}
}

// TestGammaMonotonicity: avg K must not decrease as Γ grows.
func TestGammaMonotonicity(t *testing.T) {
	ds := prepared(t, KeyX4)
	prev := -1.0
	for _, gamma := range []float64{0.8, 0.95, 0.999} {
		cfg := adapt.Config{Gamma: gamma, P: 30_000, L: 1000}
		s := Run(ds, cfg, feedback.ModelPolicy())
		if s.AvgK < prev*0.8 { // allow mild noise, forbid inversions
			t.Fatalf("avg K dropped sharply from %v to %v at Γ=%v", prev, s.AvgK, gamma)
		}
		prev = s.AvgK
	}
}

func TestFigureRunnersPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runners re-run the pipeline many times")
	}
	ds := []*Dataset{prepared(t, KeyX3)}
	var sb strings.Builder
	if got := Table2(&sb, ds); len(got) != 1 {
		t.Fatal("Table2 must summarize one dataset")
	}
	if !strings.Contains(sb.String(), "Table II") {
		t.Fatal("missing table header")
	}
	if got := Fig6(io.Discard, ds); len(got) != 1 {
		t.Fatal("Fig6 must summarize one dataset")
	}
	rows := Ablations(io.Discard, ds)
	if len(rows) != 5 {
		t.Fatalf("Ablations rows = %d, want 5", len(rows))
	}
}

func TestSummaryHelpers(t *testing.T) {
	s := Summary{Produced: 50, TrueTotal: 100}
	if s.OverallRecall() != 0.5 {
		t.Fatal("OverallRecall")
	}
	if (Summary{}).OverallRecall() != 0 {
		t.Fatal("empty OverallRecall")
	}
	if (Summary{}).AvgAdaptTime() != 0 {
		t.Fatal("empty AvgAdaptTime")
	}
}
