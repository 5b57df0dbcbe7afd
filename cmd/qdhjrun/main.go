// Command qdhjrun replays a CSV dataset (see qdhjgen) through the
// quality-driven disorder handling framework and reports result counts,
// average buffer size and recall against the oracle. Every deployment
// shape is drivable: the single MJoin-style operator (default) and any
// planner shape via -plan — the left-deep binary tree (-plan tree), bushy
// trees and stage-wise sharding. Tree shapes decide one K per stage; with
// -policy static every stage buffers the fixed -k.
// -explain prints the chosen plan graph (shape, shard routes, per-stage K
// scopes) without running.
//
// Usage:
//
//	qdhjgen -dataset x3 -minutes 10 -o d.csv
//	qdhjrun -in d.csv -query x3 -gamma 0.95 -policy model
//	qdhjrun -in d.csv -query x3 -plan tree
//	qdhjrun -query x4 -shards 4 -explain            # what would auto pick?
//	qdhjrun -in d.csv -query x4 -plan auto -shards 4
//	qdhjrun -in d.csv -query x4 -plan '((0 1)x4 2 3)x4'
//
// Fault tolerance (the planned path): -checkpoint writes a restorable
// snapshot partway through the feed and exits; -restore resumes a run from
// one; -inject arms the deterministic fault injector (which implies
// supervision — injected worker panics recover instead of crashing):
//
//	qdhjrun -in d.csv -query x3 -plan shard:2 -checkpoint snap.bin
//	qdhjrun -in d.csv -query x3 -plan shard:2 -restore snap.bin -inject panic@shard1:tuple5000
//
// Online re-planning: -replan measures arrival rates and selectivities on
// the running join, re-plans every -replan-period, and live-migrates
// between shapes; -explain-live additionally prints the plan graph before
// and after every migration. It composes with -inject and -checkpoint (a
// snapshot taken after a migration restores under the deployed shape's
// -plan), not with -restore:
//
//	qdhjgen -dataset phaseflip -minutes 2 -o flip.csv
//	qdhjrun -in flip.csv -query x4 -replan -replan-period 2 -explain-live
//
// Networked execution: -workers runs the join's partition workers as
// external qdhjd daemons (one address per shard; results and K trajectory
// are bit-for-bit equal to the in-process run); -framebatch tunes how many
// tuple messages share one wire frame. Fault injection on a networked run
// is armed on the daemons (qdhjd -inject), not here: -workers -inject is a
// flag conflict. Workers run flat shapes only, so -workers with a tree
// -plan (tree, tree-shard, a shape s-expression) is one too, and -plan auto
// (or no -plan) under -workers deploys the sharded flat shape, one shard per
// address.
//
//	qdhjd -listen 127.0.0.1:7101 & qdhjd -listen 127.0.0.1:7102 &
//	qdhjrun -in d.csv -query x3 -workers 127.0.0.1:7101,127.0.0.1:7102
//
// Invalid flag combinations exit with code 2 and an error wrapping
// errFlagConflict; see flagConflict for the full compatibility matrix.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	qdhj "repro"
	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/oracle"
	"repro/internal/stream"
)

func main() {
	var (
		in        = flag.String("in", "", "input CSV (from qdhjgen); required")
		query     = flag.String("query", "x3", "query: x2|x3|x4|cross|equichain")
		gamma     = flag.Float64("gamma", 0.95, "recall requirement Γ")
		periodS   = flag.Float64("P", 60, "measurement period P (seconds)")
		interval  = flag.Float64("L", 1, "adaptation interval L (seconds)")
		policy    = flag.String("policy", "model", "policy: model|maxk|nok|static")
		staticK   = flag.Float64("k", 0, "buffer size for -policy static (seconds)")
		strategy  = flag.String("strategy", "noneqsel", "selectivity strategy: eqsel|noneqsel")
		shards    = flag.Int("shards", 0, "shard budget: parallel workers for the planner / sharded operator")
		planSpec  = flag.String("plan", "", "deployment plan spec: auto|flat|shard[:N]|tree|tree-shard[:N] or a shape s-expression like '((0 1)x4 2)x4'")
		explain   = flag.Bool("explain", false, "print the plan graph (shape, shard routes, per-stage K scopes) and exit; works without -in")
		ckptFile  = flag.String("checkpoint", "", "write a snapshot to this file after -checkpoint-at arrivals and exit")
		ckptAt    = flag.Int("checkpoint-at", 0, "arrival count to checkpoint at (default: half the feed)")
		restore   = flag.String("restore", "", "resume from a snapshot written by -checkpoint (same dataset, query and plan)")
		inject    = flag.String("inject", "", "deterministic fault spec, e.g. 'panic@shard1:tuple5000' or 'delay@shard0:tuple100:2ms,burst@tuple200:64'; implies supervision")
		queries   = flag.String("queries", "", "multi-query spec file: run every listed query on one shared-window MultiJoin (see cmd/qdhjrun/multi.go for the format); with -explain, print the sharing structure instead of running")
		replan    = flag.Bool("replan", false, "online re-planning: measure rates and selectivities on the running join and live-migrate between shapes; starts from -plan (default flat)")
		replanP   = flag.Float64("replan-period", 0, "re-planning measurement period (seconds; default: the -P measurement period)")
		expLive   = flag.Bool("explain-live", false, "with -replan: print the plan graph before and after every live migration (implies -replan)")
		workersCS = flag.String("workers", "", "comma-separated qdhjd worker addresses: run the join's partition workers as external daemons, one per shard")
		frameB    = flag.Int("framebatch", 0, "with -workers: tuple messages per wire frame (0 = default 128; 1 = per-tuple framing); results are identical at any size")
	)
	flag.Parse()
	workers := splitAddrs(*workersCS)
	fl := runFlags{
		policy: *policy, planSpec: *planSpec, shards: *shards,
		k: *staticK, gamma: *gamma, P: *periodS, L: *interval,
		ckptFile: *ckptFile, restore: *restore, inject: *inject,
		queries: *queries, workers: workers, frameBatch: *frameB,
		replan: *replan, explainLive: *expLive,
	}
	if err := flagConflict(fl); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *queries != "" {
		acfg := adapt.Config{
			Gamma: *gamma,
			P:     stream.Time(*periodS * float64(stream.Second)),
			L:     stream.Time(*interval * float64(stream.Second)),
		}
		if *strategy == "eqsel" {
			acfg.Strategy = adapt.EqSel
		}
		runMulti(*in, *queries, acfg, *policy, *gamma, *staticK, *explain)
		return
	}
	if *explain {
		runExplain(*in, *query, *planSpec, *shards)
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	ds, err := gen.ReadCSV(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	ds.Cond = queryFor(*query, ds.M)

	acfg := adapt.Config{
		Gamma: *gamma,
		P:     stream.Time(*periodS * float64(stream.Second)),
		L:     stream.Time(*interval * float64(stream.Second)),
	}
	if *strategy == "eqsel" {
		acfg.Strategy = adapt.EqSel
	}
	var pf core.PolicyFactory
	switch *policy {
	case "model":
		pf = core.ModelPolicy()
	case "maxk":
		pf = core.MaxKPolicy()
	case "nok":
		pf = core.NoKPolicy()
	case "static":
		pf = core.StaticPolicy(stream.Time(*staticK * float64(stream.Second)))
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	ft := ftOpts{ckptFile: *ckptFile, ckptAt: *ckptAt, restore: *restore, inject: *inject}
	if *expLive {
		*replan = true
	}
	rp := replanOpts{on: *replan, explainLive: *expLive,
		period: stream.Time(*replanP * float64(stream.Second))}
	if rp.on && rp.period == 0 {
		rp.period = acfg.P
	}

	fmt.Fprintf(os.Stderr, "computing oracle ground truth...\n")
	truth := oracle.TrueResults(ds.Cond, ds.Windows, ds.Arrivals)

	if *planSpec != "" || *shards > 0 || ft.active() || rp.on || len(workers) > 0 {
		spec := resolvePlanSpec(*planSpec, len(workers), rp.on)
		runPlanned(ds, truth, acfg, *policy, stream.Time(*staticK*float64(stream.Second)), spec, *shards, workers, *frameB, ft, rp)
		return
	}

	eds := &exp.Dataset{Dataset: ds, Truth: truth}
	s := exp.Run(eds, acfg, pf)

	fmt.Printf("dataset:        %s (%d tuples, %d streams)\n", ds.Name, len(ds.Arrivals), ds.M)
	fmt.Printf("policy:         %s  Γ=%g  P=%v  L=%v\n", *policy, *gamma, acfg.P, acfg.L)
	fmt.Printf("produced:       %d of %d true results (overall recall %.4f)\n",
		s.Produced, s.TrueTotal, s.OverallRecall())
	fmt.Printf("avg K:          %.3f s\n", s.AvgK/1000)
	fmt.Printf("mean γ(P):      %.4f\n", s.MeanRecall)
	if s.PhiOK {
		fmt.Printf("Φ(Γ):           %.1f%%\n", s.PhiGamma)
		fmt.Printf("Φ(.99Γ):        %.1f%%\n", s.Phi99)
	}
	if s.AdaptSteps > 0 {
		fmt.Printf("adaptation:     %d steps, avg %v per step\n", s.AdaptSteps, s.AvgAdaptTime())
	}
}

// runExplain prints the plan graph for a query without running it; the
// dataset is optional (its arity and windows are used when present, else
// the query's natural arity with 2 s windows).
func runExplain(in, query, spec string, shards int) {
	m := 0
	windows := []stream.Time(nil)
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			fatal(err)
		}
		ds, err := gen.ReadCSV(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		m, windows = ds.M, ds.Windows
	} else {
		switch query {
		case "x2":
			m = 2
		case "x3":
			m = 3
		case "x4":
			m = 4
		default:
			fatal(fmt.Errorf("-explain without -in needs a fixed-arity query (x2|x3|x4), got %q", query))
		}
		windows = make([]stream.Time, m)
		for i := range windows {
			windows[i] = 2 * stream.Second
		}
	}
	if spec == "" {
		spec = "auto"
	}
	p, err := qdhj.ParsePlan(spec, queryFor(query, m), windows, shards)
	if err != nil {
		fatal(err)
	}
	fmt.Print(qdhj.Explain(p))
}

// errFlagConflict is the documented typed error behind every invalid flag
// combination: qdhjrun prints an error chain that errors.Is(err,
// errFlagConflict) recognizes and exits with code 2. flagConflict is the
// full compatibility matrix; main_test.go pins it.
var errFlagConflict = errors.New("conflicting flags")

func conflict(msg string) error {
	return fmt.Errorf("qdhjrun: %w: %s", errFlagConflict, msg)
}

// runFlags mirrors the deployment-shaping command line for conflict
// checking.
type runFlags struct {
	policy                    string
	planSpec                  string
	shards                    int
	k, gamma, P, L            float64 // as typed; -k, -P and -L are in seconds
	ckptFile, restore, inject string
	queries                   string
	workers                   []string
	frameBatch                int
	replan, explainLive       bool
}

// flagConflict validates one flag combination and returns the first
// conflict found (wrapping errFlagConflict), or nil. Out-of-range numbers
// are rejected here too, before anything downstream can clamp or default
// them silently while the report line echoes what the user typed.
//
// The -queries × -inject rule deserves its history: the two flags used to
// compose silently, but fault injection is not wired through the
// shared-window multi-query engine — MultiJoin.Push never consults an
// injector, so the armed faults would simply never fire and the run would
// masquerade as a passed recovery test. The combination is now a
// documented error; arm faults on a single-query deployment, or on the
// daemons (qdhjd -inject) for networked runs.
func flagConflict(f runFlags) error {
	// Negated comparisons so NaN fails every range.
	switch {
	case !(f.gamma > 0 && f.gamma <= 1):
		return conflict(fmt.Sprintf("-gamma %g is outside (0, 1]: Γ is a recall requirement", f.gamma))
	case !(f.P > 0):
		return conflict(fmt.Sprintf("-P %g: the measurement period must be positive", f.P))
	case !(f.L > 0 && f.L <= f.P):
		return conflict(fmt.Sprintf("-L %g: the adaptation interval must be positive and at most -P %g", f.L, f.P))
	case !(f.k >= 0):
		return conflict(fmt.Sprintf("-k %g: a buffer size cannot be negative", f.k))
	case f.shards < 0:
		return conflict(fmt.Sprintf("-shards %d: a shard budget cannot be negative", f.shards))
	case f.frameBatch < 0:
		return conflict(fmt.Sprintf("-framebatch %d: a frame batch cannot be negative (0 selects the default)", f.frameBatch))
	}
	if f.queries != "" {
		if f.inject != "" {
			return conflict("-queries cannot be combined with -inject: fault injection is not wired through the shared-window multi-query engine, so the armed faults would never fire; inject on a single-query run, or on qdhjd -inject for networked runs")
		}
		if f.planSpec != "" || f.shards > 0 ||
			f.ckptFile != "" || f.restore != "" || len(f.workers) > 0 || f.replan || f.explainLive {
			return conflict("-queries is its own deployment shape; it cannot be combined with -plan/-shards/-checkpoint/-restore/-workers/-replan")
		}
		return nil
	}
	if f.replan || f.explainLive {
		if f.restore != "" {
			return conflict("-replan cannot be combined with -restore: a restored join resumes the snapshot's own shape without the re-planner")
		}
		if len(f.workers) > 0 {
			return conflict("-workers cannot be combined with -replan: remote workers pin the sharded flat shape, and a live migration would change it")
		}
	}
	if len(f.workers) > 0 {
		if f.inject != "" {
			return conflict("-workers cannot be combined with -inject: driver-side injection never reaches a remote worker process; arm the fault on the daemon instead (qdhjd -inject)")
		}
		if f.shards > 0 && f.shards != len(f.workers) {
			return conflict(fmt.Sprintf("-shards %d disagrees with %d -workers addresses (one worker per shard)", f.shards, len(f.workers)))
		}
		if treeSpec(f.planSpec) {
			return conflict(fmt.Sprintf("-workers cannot be combined with the tree-shaped -plan %q: remote workers execute only flat shapes, since tree stages own window state the driver cannot retain for checkpointing; plan shard:N or flat", f.planSpec))
		}
	}
	if f.frameBatch > 0 && len(f.workers) == 0 {
		return conflict("-framebatch tunes the wire framing of a networked run; it needs -workers")
	}
	return nil
}

// treeSpec reports whether a -plan spec names a tree shape whatever the
// query: tree, tree-shard[:N], or a shape s-expression, whose every group is
// a binary stage.
func treeSpec(spec string) bool {
	name, _, _ := strings.Cut(strings.TrimSpace(spec), ":")
	return name == "tree" || name == "tree-shard" || strings.HasPrefix(name, "(")
}

// resolvePlanSpec returns the plan spec a planned run deploys. Remote
// workers run flat shapes only, one shard per address, so with workers an
// empty or auto spec resolves to that sharded flat shape — the auto-planner
// could otherwise pick a stage-wise tree no worker can execute. Without
// workers an empty spec is auto, or flat when re-planning (which discovers
// the shape itself).
func resolvePlanSpec(spec string, workers int, replan bool) string {
	name, _, _ := strings.Cut(strings.TrimSpace(spec), ":")
	switch {
	case workers > 0 && (name == "" || name == "auto"):
		return fmt.Sprintf("shard:%d", workers)
	case spec != "":
		return spec
	case replan:
		return "flat"
	}
	return "auto"
}

// splitAddrs parses the -workers list.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// ftOpts carries the fault-tolerance flags of one run.
type ftOpts struct {
	ckptFile string
	ckptAt   int
	restore  string
	inject   string
}

func (ft ftOpts) active() bool { return ft.ckptFile != "" || ft.restore != "" || ft.inject != "" }

// writeSnapFile persists (consumed-arrival count, snapshot) — the count
// lets -restore resume the feed at the right offset.
func writeSnapFile(path string, consumed int, snap *qdhj.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(consumed))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := snap.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSnapFile reads a -checkpoint file back.
func readSnapFile(path string) (int, *qdhj.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	var hdr [8]byte
	if _, err := f.Read(hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("reading snapshot header: %w", err)
	}
	snap, err := qdhj.ReadSnapshot(f)
	if err != nil {
		return 0, nil, err
	}
	return int(binary.BigEndian.Uint64(hdr[:])), snap, nil
}

// replanOpts carries the online re-planning flags of one run.
type replanOpts struct {
	on          bool
	explainLive bool
	period      stream.Time
}

// runPlanned replays the dataset through an explicitly planned deployment
// (the NewJoin + WithPlan path) and reports recall against the oracle.
// With -checkpoint it stops partway and writes a snapshot; with -restore it
// resumes from one; with -inject it runs supervised under deterministic
// fault injection; with -replan it re-plans online and live-migrates.
func runPlanned(ds *gen.Dataset, truth *oracle.Index, acfg adapt.Config, policy string,
	staticK stream.Time, spec string, shards int, workers []string, frameBatch int,
	ft ftOpts, rp replanOpts) {
	p, err := qdhj.ParsePlan(spec, ds.Cond, ds.Windows, shards)
	if err != nil {
		fatal(err)
	}
	fmt.Fprint(os.Stderr, qdhj.Explain(p))
	opt := qdhj.Options{
		Gamma:    acfg.Gamma,
		Period:   acfg.P,
		Interval: acfg.L,
		Strategy: acfg.Strategy,
	}
	switch policy {
	case "model":
	case "maxk":
		opt.Policy = qdhj.MaxSlack
	case "nok":
		opt.Policy = qdhj.NoSlack
	case "static":
		opt.Policy = qdhj.StaticSlack
		opt.StaticK = staticK
	default:
		fatal(fmt.Errorf("unknown policy %q for planned execution", policy))
	}
	jopts := []qdhj.JoinOption{qdhj.WithPlan(p)}
	if len(workers) > 0 {
		jopts = append(jopts, qdhj.WithRemoteWorkers(workers...))
		if frameBatch > 0 {
			jopts = append(jopts, qdhj.WithFrameBatch(frameBatch))
		}
		fmt.Fprintf(os.Stderr, "networked: %d workers (%s)\n", len(workers), strings.Join(workers, ", "))
		if ft.ckptFile == "" && ft.restore == "" {
			// Worker loss without supervision would panic the driver;
			// a networked run defaults to the supervised runtime so a
			// restarted daemon is re-dialed and restored automatically.
			jopts = append(jopts, qdhj.WithSupervision(qdhj.Supervision{
				OnRestart: func(n int, cause error) {
					fmt.Fprintf(os.Stderr, "restart %d: recovered from: %v\n", n, cause)
				}}))
		}
	}
	var migrations int
	var totalPause, maxPause time.Duration
	if rp.on {
		jopts = append(jopts, qdhj.WithOnlineReplan(qdhj.ReplanOptions{
			Hints:  qdhj.PlanHints{Shards: shards},
			Period: rp.period,
			OnMigrate: func(ev qdhj.MigrationEvent) {
				migrations++
				totalPause += ev.Pause
				if ev.Pause > maxPause {
					maxPause = ev.Pause
				}
				fmt.Fprintf(os.Stderr, "migrate: %s → %s at ts=%d (replayed %d, pause %v)\n",
					ev.From, ev.To, ev.At, ev.Replayed, ev.Pause)
				if rp.explainLive {
					fmt.Fprintf(os.Stderr, "-- before --\n%s-- after --\n%s", ev.FromExplain, ev.ToExplain)
				}
			},
		}))
	}
	if ft.inject != "" {
		inj, err := qdhj.ParseInjectSpec(ft.inject)
		if err != nil {
			fatal(err)
		}
		jopts = append(jopts,
			qdhj.WithInjector(inj),
			qdhj.WithSupervision(qdhj.Supervision{OnRestart: func(n int, cause error) {
				fmt.Fprintf(os.Stderr, "restart %d: recovered from: %v\n", n, cause)
			}}))
	}

	arrivals := ds.Arrivals.Clone()
	start := 0
	var j *qdhj.Join
	if ft.restore != "" {
		consumed, snap, err := readSnapFile(ft.restore)
		if err != nil {
			fatal(err)
		}
		j, err = qdhj.Restore(snap, ds.Cond, ds.Windows, opt, jopts...)
		if err != nil {
			fatal(err)
		}
		start = consumed
		fmt.Fprintf(os.Stderr, "restored %s at arrival %d of %d\n", ft.restore, consumed, len(arrivals))
	} else {
		j = qdhj.NewJoin(ds.Cond, ds.Windows, opt, jopts...)
	}
	ckAt := -1
	if ft.ckptFile != "" {
		ckAt = ft.ckptAt
		if ckAt <= 0 {
			ckAt = len(arrivals) / 2
		}
	}
	for i := start; i < len(arrivals); i++ {
		j.Push(arrivals[i])
		if i+1 == ckAt {
			snap, err := j.Checkpoint()
			if err != nil {
				fatal(err)
			}
			if err := writeSnapFile(ft.ckptFile, i+1, snap); err != nil {
				fatal(err)
			}
			j.Close()
			fmt.Printf("checkpoint:     %s at arrival %d of %d (signature %s)\n",
				ft.ckptFile, i+1, len(arrivals), snap.Signature())
			return
		}
	}
	j.Close()
	if err := j.Err(); err != nil {
		fatal(fmt.Errorf("join went terminal after %d restarts: %w", j.Restarts(), err))
	}

	recall := 0.0
	if truth.Total() > 0 {
		recall = float64(j.Results()) / float64(truth.Total())
	}
	fmt.Printf("dataset:        %s (%d tuples, %d streams)\n", ds.Name, len(ds.Arrivals), ds.M)
	fmt.Printf("execution:      planned (%s), %s  Γ=%g  P=%v  L=%v\n", spec, policy, acfg.Gamma, acfg.P, acfg.L)
	fmt.Printf("produced:       %d of %d true results (overall recall %.4f)\n",
		j.Results(), truth.Total(), recall)
	if n := j.Restarts(); n > 0 {
		fmt.Printf("restarts:       %d (all recovered)\n", n)
	}
	if rp.on {
		fmt.Printf("migrations:     %d (total pause %v, max %v)\n", migrations, totalPause, maxPause)
		fmt.Printf("final plan:     %s", qdhj.Explain(j.CurrentPlan()))
	}
	if ks := j.CurrentKs(); len(ks) > 0 && opt.Policy != qdhj.StaticSlack {
		fmt.Printf("final Ks:       %v (max %v)\n", ks, j.CurrentK())
		fmt.Printf("adaptation:     %d steps, avg max-K %.3f s\n", j.Adaptations(), j.AvgK()/1000)
	}
}

// queryFor attaches the query matching the dataset key.
func queryFor(q string, m int) *join.Condition {
	switch q {
	case "x2":
		return gen.SoccerCondition(5)
	case "x3":
		return join.EquiChain(3, 0)
	case "x4":
		return join.Star(4, []int{0, 1, 2}, []int{0, 0, 0})
	case "cross":
		return join.Cross(m)
	case "equichain":
		return join.EquiChain(m, 0)
	default:
		fatal(fmt.Errorf("unknown query %q", q))
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
