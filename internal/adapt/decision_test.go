package adapt_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/monitor"
	"repro/internal/profiler"
	"repro/internal/stats"
	"repro/internal/stream"
)

// diffPolicy runs the model and, on the same statistics, snapshot and Γ′,
// the float reference it replaced, and holds the two decisions together.
type diffPolicy struct {
	t       *testing.T
	model   *adapt.Model
	cfg     adapt.Config
	windows []stream.Time
	src     adapt.Source

	decisions, positive, ties int
}

func (p *diffPolicy) Name() string { return "diff(" + p.model.Name() + ")" }

func (p *diffPolicy) Decide(now stream.Time, snap *profiler.Snapshot) stream.Time {
	k := p.model.Decide(now, snap)
	gp := p.model.LastGammaPrime()
	ref := adapt.NewRefEvaluator(p.cfg, p.windows, p.src)
	kRef := ref.Decide(snap, gp)
	p.decisions++
	if k > 0 {
		p.positive++
	}
	if k == kRef {
		return k
	}
	// The integer form may only break a tie the float sum lost to rounding:
	// one g apart, at a candidate whose reference recall is Γ′ to 1e-12 —
	// and only at Γ = 0.99, where Γ′ lands exactly on such a value.
	p.ties++
	g := p.cfg.Normalize().G
	lo := min(k, kRef)
	if r := ref.Recall(lo, snap); p.cfg.Gamma <= 0.95 || max(k, kRef)-lo != g || math.Abs(r-gp) > 1e-12 {
		p.t.Errorf("decision %d at %d: K = %d, reference %d (Γ′ = %v, reference recall at %d = %v)",
			p.decisions, now, k, kRef, gp, lo, r)
	}
	return k
}

// TestDecisionsMatchReference is the decision-level differential: the three
// evaluation datasets × Γ × strategy × search through the whole pipeline,
// every boundary's K against the reference's.
func TestDecisionsMatchReference(t *testing.T) {
	minutes := 1.5
	if testing.Short() {
		minutes = 0.5
	}
	dur := stream.Time(minutes * float64(stream.Minute))
	datasets := []*gen.Dataset{
		gen.Soccer(gen.SoccerConfig{Duration: dur, Seed: 42}),
		gen.Synthetic3(gen.SynthConfig{Duration: dur, Seed: 42}),
		gen.Synthetic4(gen.SynthConfig{Duration: dur, Seed: 42}),
	}
	for _, ds := range datasets {
		for _, gamma := range []float64{0.9, 0.95, 0.99} {
			for _, strategy := range []adapt.Strategy{adapt.EqSel, adapt.NonEqSel} {
				for _, search := range []adapt.Search{adapt.LinearSearch, adapt.BinarySearch} {
					name := fmt.Sprintf("%s/%v/%v/%v", ds.Name, gamma, strategy, search)
					t.Run(name, func(t *testing.T) {
						var pol *diffPolicy
						p := core.New(core.Config{
							Windows: ds.Windows, Cond: ds.Cond,
							Adapt: adapt.Config{Gamma: gamma, P: 20 * stream.Second, L: stream.Second,
								Strategy: strategy, Search: search},
							Policy: func(st *stats.Manager, mon *monitor.Monitor, cfg adapt.Config, windows []stream.Time) adapt.Policy {
								pol = &diffPolicy{t: t, model: adapt.NewModel(cfg, windows, st, mon),
									cfg: cfg, windows: windows, src: st}
								return pol
							},
						})
						for _, e := range ds.Arrivals.Clone() {
							p.Push(e)
						}
						p.Finish()
						if pol.decisions == 0 || pol.positive == 0 {
							t.Fatalf("%d decisions, %d with K > 0: the search was not exercised", pol.decisions, pol.positive)
						}
						if pol.ties > 0 {
							t.Logf("%d of %d decisions broke a rounding tie", pol.ties, pol.decisions)
						}
					})
				}
			}
		}
	}
}
