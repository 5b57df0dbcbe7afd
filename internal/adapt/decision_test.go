package adapt_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hist"
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

// alg3Policy runs the model and, on the same statistics, snapshot and Γ′,
// the plain Alg. 3 scan the bounded one replaced; every K must be the scan's.
type alg3Policy struct {
	t     *testing.T
	model *adapt.Model

	decisions, positive int
	plainIters          int64
}

func (p *alg3Policy) Name() string { return "alg3(" + p.model.Name() + ")" }

func (p *alg3Policy) Decide(now stream.Time, snap *profiler.Snapshot) stream.Time {
	k := p.model.Decide(now, snap)
	p.check(now, k, snap, p.model.LastGammaPrime())
	return k
}

func (p *alg3Policy) check(now, k stream.Time, snap *profiler.Snapshot, gammaPrime float64) {
	p.t.Helper()
	want, iters := p.model.Alg3(snap, gammaPrime)
	p.decisions++
	p.plainIters += iters
	if k > 0 {
		p.positive++
	}
	if k != want {
		p.t.Errorf("decision %d at %d: K = %d, Alg. 3 scans to %d (Γ′ = %v)", p.decisions, now, k, want, gammaPrime)
	}
}

// TestBoundedScanMatchesAlg3 holds the bounded scan to the plain Alg. 3
// scan on every decision: through the whole pipeline on the three
// evaluation datasets × Γ × strategy × granularity g (b = 10 ms, so g = 10
// steps cursors and g ∈ {1, 100} seeks them), and on hand-built statistics
// that stress the envelope's degenerate cases. The plain scan seeks every
// candidate at g = 1, so those rows run a quarter of the horizon.
func TestBoundedScanMatchesAlg3(t *testing.T) {
	minutes := 1.0
	if testing.Short() {
		minutes = 0.25
	}
	for _, g := range []stream.Time{1, 10, 100} {
		dur := stream.Time(minutes * float64(stream.Minute))
		if g == 1 {
			dur /= 4
		}
		datasets := []*gen.Dataset{
			gen.Soccer(gen.SoccerConfig{Duration: dur, Seed: 42}),
			gen.Synthetic3(gen.SynthConfig{Duration: dur, Seed: 42}),
			gen.Synthetic4(gen.SynthConfig{Duration: dur, Seed: 42}),
		}
		for _, ds := range datasets {
			for _, gamma := range []float64{0.9, 0.95, 0.99} {
				for _, strategy := range []adapt.Strategy{adapt.EqSel, adapt.NonEqSel} {
					name := fmt.Sprintf("%s/g=%d/%v/%v", ds.Name, g, gamma, strategy)
					t.Run(name, func(t *testing.T) {
						var pol *alg3Policy
						p := core.New(core.Config{
							Windows: ds.Windows, Cond: ds.Cond,
							Adapt: adapt.Config{Gamma: gamma, P: 20 * stream.Second, L: stream.Second,
								G: g, Strategy: strategy},
							Policy: func(st *stats.Manager, mon *monitor.Monitor, cfg adapt.Config, windows []stream.Time) adapt.Policy {
								pol = &alg3Policy{t: t, model: adapt.NewModel(cfg, windows, st, mon)}
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
						_, iters, _ := pol.model.AdaptStats()
						t.Logf("%d decisions: %.1f evaluations each, the plain scan %.1f",
							pol.decisions, float64(iters)/float64(pol.decisions), float64(pol.plainIters)/float64(pol.decisions))
					})
				}
			}
		}
	}
	t.Run("hand-built", func(t *testing.T) { handBuiltDecisions(t) })
}

// handBuiltDecisions decides with DecideShared against Γ′ ∈ {Γ, 1}, under
// both strategies, on statistics shaped to reach the envelope's corner
// cases: one fixed case, then random delay histograms and productivity
// snapshots with
//   - productivity that rises and falls with the delay, so SelRatio is not
//     monotone in K;
//   - a prefix of coarse delays with n^on = 0, or with n× = 0 as well;
//   - out-of-order stragglers far past the in-order maximum delay (maxDM);
//   - MaxD^H below g, and K^sync off the multiples of g.
func handBuiltDecisions(t *testing.T) {
	const gamma = 0.95
	decide := func(trial int, src adapt.Source, windows []stream.Time, g stream.Time, snap *profiler.Snapshot) {
		t.Helper()
		for _, strategy := range []adapt.Strategy{adapt.EqSel, adapt.NonEqSel} {
			for _, gp := range []float64{gamma, 1} {
				cfg := adapt.Config{Gamma: gamma, B: 10, G: g, Strategy: strategy}
				pol := &alg3Policy{t: t, model: adapt.NewModel(cfg, windows, src, nil)}
				pol.check(stream.Time(trial), pol.model.DecideShared(0, snap, gp), snap, gp)
			}
		}
	}

	// The fixed case: one input, so γ_E(K) is the share of delays ≤ K,
	// uniform over [0, 300 ms). Coarse delays 0–4 derived nothing (n× = 0)
	// and delay 5 is by far the most productive, so SelRatio jumps from 1 to
	// 250/34 at K = 50 ms and k* = 50 ms under NonEqSel, while γ_E stays
	// below Γ′ across the whole first block.
	h := hist.New(10)
	prof := profiler.New(10)
	for d := stream.Time(0); d < 300; d++ {
		h.Add(d)
		switch {
		case d%10 != 0:
		case d < 50:
			prof.RecordInOrder(d, 0, 0)
		case d == 50:
			prof.RecordInOrder(d, 10, 10)
		default:
			prof.RecordInOrder(d, 10, 1)
		}
	}
	decide(-1, adapt.NewFakeSource([][]*hist.Histogram{{h}}, []stream.Time{0}, 0), []stream.Time{100}, 10, prof.Snapshot())

	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 400; trial++ {
		g := []stream.Time{1, 10, 100}[rng.Intn(3)]
		m := 1 + rng.Intn(3)
		delays := make([][]*hist.Histogram, m)
		ksync := make([]stream.Time, m)
		windows := make([]stream.Time, m)
		for i := range delays {
			for j, members := 0, 1+rng.Intn(2); j < members; j++ {
				h := hist.New(g)
				spread := 1 + rng.Int63n(int64(60*g))
				for a, n := 0, rng.Intn(600); a < n; a++ {
					if rng.Intn(4) == 0 {
						h.Add(0)
					} else {
						h.Add(stream.Time(rng.Int63n(spread)))
					}
				}
				delays[i] = append(delays[i], h)
			}
			ksync[i] = stream.Time(rng.Int63n(int64(7 * g)))
			windows[i] = []stream.Time{g, 10 * g, 40*g + 3}[rng.Intn(3)]
		}
		var maxDH stream.Time // 0: the histograms' largest delay
		if rng.Intn(5) == 0 {
			maxDH = 1 + stream.Time(rng.Int63n(int64(g))) // below g, or exactly g
		}
		src := adapt.NewFakeSource(delays, ksync, maxDH)

		prof := profiler.New(g)
		top := 1 + rng.Intn(80)
		zeroOn, zeroCross := rng.Intn(top), 0
		if rng.Intn(2) == 0 {
			zeroCross = rng.Intn(zeroOn + 1)
		}
		peak := rng.Intn(top)
		if rng.Intn(2) == 0 {
			peak = zeroCross // the most productive delays right after the n× = 0 prefix
		}
		for d := 0; d < top; d++ {
			for n := rng.Intn(4); n > 0; n-- {
				cross := int64(1 + rng.Intn(20))
				on := int64(rng.Intn(int(cross)+1)) * int64(1+top-abs(d-peak)) / int64(1+top)
				switch {
				case d < zeroCross:
					cross, on = 0, 0
				case d < zeroOn:
					on = 0
				}
				prof.RecordInOrder(stream.Time(d)*g+stream.Time(rng.Int63n(int64(g))), cross, on)
			}
		}
		for n := rng.Intn(12); n > 0; n-- {
			prof.RecordOutOfOrder(stream.Time(top+rng.Intn(10*top)) * g)
		}
		decide(trial, src, windows, g, prof.Snapshot())
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
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
