package main

import (
	"math/rand"
	"time"

	qdhj "repro"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/stream"
)

// Every workload's trace is generated at a fixed generator seed — 42 for the
// paper's datasets, 17 and 23 for the tree and re-planning feeds, as in the
// repository's tests and BENCH files — and -seed jitters it; see jitter.
const (
	paperSeed = 42
	treeSeed  = 17
	flipSeed  = 23
)

// workload is one named set of inputs and join options.
type workload struct {
	name, why string
	// horizon scales the -minutes flag (the horizon of the P = 1 min
	// workloads) to this workload's logical length.
	horizon float64
	build   func(seed int64, minutes float64) *instance
	// equalsTwin: the result count and K trajectory must equal the flat
	// twin's. migrates: the plan must migrate at least once, and recall stay
	// within 0.01 of the flat twin's.
	equalsTwin, migrates bool
}

// sinkKind is what a workload's timed passes deliver results to.
type sinkKind int

const (
	sinkNone    sinkKind = iota // nothing installed: the operator's counting-only path
	sinkCounts                  // WithResultCounts: one callback per in-order arrival
	sinkResults                 // WithResults: every result materialised and delivered
)

// instance is a workload with its inputs generated: everything a pass needs
// to build a fresh join and feed it.
type instance struct {
	feed    stream.Batch // pristine; every pass pushes a Clone
	cond    *qdhj.Condition
	windows []qdhj.Time
	opt     qdhj.Options
	sink    sinkKind
	// shell returns the deployment options (plan, re-planning, shards,
	// supervision) of a fresh join; nil on the default flat plan.
	shell   func(onMigrate func(qdhj.MigrationEvent)) []qdhj.JoinOption
	tryPush bool
	truth   *oracle.Index
	// buildTime is the plan build + join construction part of set-up.
	buildTime time.Duration
}

// flat reports whether the workload runs the default flat plan, which the
// traced pass can re-wire from the layer packages.
func (in *instance) flat() bool { return in.shell == nil }

// twin returns the same feed and options on the default flat plan.
func (in *instance) twin() *instance {
	t := *in
	t.shell, t.tryPush = nil, false
	return &t
}

// period returns the quality measurement period P the instance runs with.
func (in *instance) period() qdhj.Time {
	if in.opt.Period > 0 {
		return in.opt.Period
	}
	return qdhj.Minute
}

// gamma returns the recall target Φ(Γ) is measured against.
func (in *instance) gamma() float64 {
	if in.opt.Gamma > 0 {
		return in.opt.Gamma
	}
	return 0.95
}

// newJoin builds a fresh join of the instance with the given sink and hooks.
func (in *instance) newJoin(onMigrate func(qdhj.MigrationEvent), extra ...qdhj.JoinOption) *qdhj.Join {
	var opts []qdhj.JoinOption
	if in.shell != nil {
		opts = in.shell(onMigrate)
	}
	return qdhj.NewJoin(in.cond, in.windows, in.opt, append(opts, extra...)...)
}

func minutesToTime(m float64) stream.Time { return stream.Time(m * float64(stream.Minute)) }

// dataset wraps a generated dataset, jittered by seed.
func dataset(ds *gen.Dataset, seed int64, opt qdhj.Options, sink sinkKind) *instance {
	return &instance{
		feed:    jitter(ds.Arrivals, seed),
		cond:    ds.Cond,
		windows: ds.Windows,
		opt:     opt,
		sink:    sink,
	}
}

func x3(seed int64, minutes float64, opt qdhj.Options, sink sinkKind) *instance {
	return dataset(gen.Synthetic3(gen.SynthConfig{Duration: minutesToTime(minutes), Seed: paperSeed}), seed, opt, sink)
}

var workloads = []workload{
	{
		name:    "x3-model",
		why:     "the paper's loop at Γ=0.95 on its densest query (3-way equi chain, W=5s); the K search dominates, so decision-path work shows here",
		horizon: 1,
		build: func(seed int64, minutes float64) *instance {
			return x3(seed, minutes, qdhj.Options{Gamma: 0.95}, sinkCounts)
		},
	},
	{
		name:    "x3-noslack",
		why:     "same feed with the loop off (NoSlack, no sink): probe, window and index do the work; the bypass for decision-path changes",
		horizon: 1,
		build: func(seed int64, minutes float64) *instance {
			return x3(seed, minutes, qdhj.Options{Policy: qdhj.NoSlack}, sinkNone)
		},
	},
	{
		name:    "x2-deliver",
		why:     "soccer band+closure join with bursty delays, every result delivered: enumeration, materialisation, emit, range index, ADWIN churn",
		horizon: 1,
		build: func(seed int64, minutes float64) *instance {
			ds := gen.Soccer(gen.SoccerConfig{Duration: minutesToTime(minutes), Seed: paperSeed})
			return dataset(ds, seed, qdhj.Options{Gamma: 0.95}, sinkResults)
		},
	},
	{
		name:    "x4-model-g99",
		why:     "4-way star at Γ=0.99: fewer basic windows per Eq. 3 sum but a longer K search and larger K-slack occupancy; where quality shifts show",
		horizon: 1,
		build: func(seed int64, minutes float64) *instance {
			ds := gen.Synthetic4(gen.SynthConfig{Duration: minutesToTime(minutes), Seed: paperSeed})
			return dataset(ds, seed, qdhj.Options{Gamma: 0.99}, sinkCounts)
		},
	},
	{
		name:    "tree3-perstage",
		why:     "sparse 3-way equi join on the left-deep tree plan with one K per stage: intermediates and multi-scope feedback, not the search",
		horizon: 1.5,
		build: func(seed int64, minutes float64) *instance {
			in := &instance{
				feed:    jitter(gen.SparseEqui3(int(minutes*6000), treeSeed, 500, [3]stream.Time{150, 150, 2500}), seed),
				cond:    qdhj.EquiChain(3, 0),
				windows: []qdhj.Time{2 * qdhj.Second, 2 * qdhj.Second, 2 * qdhj.Second},
				opt:     qdhj.Options{Gamma: 0.95, Period: 30 * qdhj.Second, Interval: qdhj.Second},
				sink:    sinkResults,
			}
			in.shell = func(func(qdhj.MigrationEvent)) []qdhj.JoinOption {
				p, err := qdhj.ParsePlan("tree", in.cond, in.windows, 0)
				if err != nil {
					panic(err)
				}
				return []qdhj.JoinOption{qdhj.WithPlan(p)}
			}
			return in
		},
	},
	{
		name:     "flip4-replan",
		why:      "phase-flipping 4-way star under online re-planning: replan controller, exactly-once emit gate and live migration, the idle tax of that shell",
		horizon:  0.1,
		migrates: true,
		build: func(seed int64, minutes float64) *instance {
			// Below 30 s no phase outlasts the controller's dwell time, and the
			// workload would never migrate.
			ds := gen.PhaseFlip4(minutesToTime(max(minutes, 0.5)), flipSeed)
			in := dataset(ds, seed, qdhj.Options{Gamma: 0.95, Period: 30 * qdhj.Second, Interval: qdhj.Second}, sinkResults)
			in.shell = func(onMigrate func(qdhj.MigrationEvent)) []qdhj.JoinOption {
				return []qdhj.JoinOption{qdhj.WithOnlineReplan(qdhj.ReplanOptions{
					Period: 5 * qdhj.Second, MinDwell: 10 * qdhj.Second, Improvement: 1.25,
					OnMigrate: onMigrate,
				})}
			}
			return in
		},
	},
	{
		name:       "x3-shard2-sup",
		why:        "x3-model's feed on 2 supervised shards through TryPush: router, async stats feeder, interval merge, checkpoint capture, both cores",
		horizon:    1,
		equalsTwin: true,
		build: func(seed int64, minutes float64) *instance {
			in := x3(seed, minutes, qdhj.Options{Gamma: 0.95}, sinkCounts)
			in.tryPush = true
			in.shell = func(func(qdhj.MigrationEvent)) []qdhj.JoinOption {
				return []qdhj.JoinOption{qdhj.WithShards(2), qdhj.WithSupervision(qdhj.Supervision{})}
			}
			return in
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setup generates the workload's feed and oracle truth and builds (then
// discards) one join, timing the whole as the benchmark's set-up.
func (w *workload) setup(seed int64, minutes float64) (*instance, time.Duration) {
	t0 := time.Now()
	in := w.build(seed, minutes*w.horizon)
	in.truth = oracle.TrueResults(in.cond, in.windows, in.feed)
	tb := time.Now()
	j := in.newJoin(nil)
	in.buildTime = time.Since(tb)
	total := time.Since(t0)
	j.Close()
	return in, total
}

// jitter is how -seed varies a workload's input: it moves a seed-chosen 1 %
// of the tuples by up to ±5 ms of application time. That is enough that which
// tuples arrive late, the result count and every logical-time metric differ
// from seed to seed, and little enough that the K trajectory keeps its level
// (average K within ±0.02 % over ten seeds; jittering every tuple by ±50 ms
// already moves it ±3.5 %).
//
// Reseeding the generators instead is not an option. The paper's generators
// redraw the join selectivity a handful of times per run, so two generator
// seeds give result counts that differ threefold and an average K that
// differs by a third; and the K trajectory depends on its history enough
// that even reordering or rotating the minutes of one trace moves throughput
// by 7–20 % (README.md has the measurements). No bound could then tell a
// regression from a reseed.
func jitter(feed stream.Batch, seed int64) stream.Batch {
	rng := rand.New(rand.NewSource(seed))
	out := make(stream.Batch, len(feed))
	for i, t := range feed {
		cp := *t
		if rng.Intn(100) == 0 {
			if ts := cp.TS + stream.Time(rng.Intn(11)-5); ts >= 0 {
				cp.TS = ts
			}
		}
		out[i] = &cp
	}
	return out
}
