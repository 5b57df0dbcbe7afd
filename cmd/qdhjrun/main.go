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
// and after every migration. A snapshot taken after a migration restores
// under the deployed shape's -plan:
//
//	qdhjgen -dataset phaseflip -minutes 2 -o flip.csv
//	qdhjrun -in flip.csv -query x4 -replan -replan-period 2 -explain-live
//
// Networked execution: -workers runs the join's partition workers as
// external qdhjd daemons (one address per shard; results and K trajectory
// are bit-for-bit equal to the in-process run); -framebatch tunes how many
// tuple messages share one wire frame. -plan auto (or no -plan) under
// -workers deploys the sharded flat shape, one shard per address.
//
//	qdhjd -listen 127.0.0.1:7101 & qdhjd -listen 127.0.0.1:7102 &
//	qdhjrun -in d.csv -query x3 -workers 127.0.0.1:7101,127.0.0.1:7102
//
// Invalid flag combinations exit with code 2 and an error wrapping
// errFlagConflict, before any input is read: the pairs the library's option
// matrix refuses (internal/plan.Matrix, DESIGN.md §9) under their flag
// names, and the rules of flagConflict that only the command line has —
// among them -shards under a -plan that would ignore it.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	qdhj "repro"
	"repro/internal/adapt"
	"repro/internal/exp"
	"repro/internal/feedback"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/stream"
)

func main() {
	var f runFlags
	var workers string
	flag.StringVar(&f.in, "in", "", "input CSV (from qdhjgen); required")
	flag.StringVar(&f.query, "query", "x3", "query: x2|x3|x4|cross|equichain")
	flag.Float64Var(&f.gamma, "gamma", 0.95, "recall requirement Γ")
	flag.Float64Var(&f.P, "P", 60, "measurement period P (seconds)")
	flag.Float64Var(&f.L, "L", 1, "adaptation interval L (seconds)")
	flag.StringVar(&f.policy, "policy", "model", "policy: model|maxk|nok|static")
	flag.Float64Var(&f.k, "k", 0, "buffer size for -policy static (seconds)")
	flag.StringVar(&f.strategy, "strategy", "noneqsel", "selectivity strategy: eqsel|noneqsel")
	flag.IntVar(&f.shards, "shards", 0, "shard budget: parallel workers for the planner / sharded operator")
	flag.StringVar(&f.planSpec, "plan", "", "deployment plan spec: auto|flat|shard[:N]|tree|tree-shard[:N] or a shape s-expression like '((0 1)x4 2)x4'")
	flag.BoolVar(&f.explain, "explain", false, "print the plan graph (shape, shard routes, per-stage K scopes) and exit; works without -in")
	flag.StringVar(&f.ckptFile, "checkpoint", "", "write a snapshot to this file after -checkpoint-at arrivals and exit")
	flag.IntVar(&f.ckptAt, "checkpoint-at", 0, "arrival count to checkpoint at (default: half the feed)")
	flag.StringVar(&f.restore, "restore", "", "resume from a snapshot written by -checkpoint (same dataset, query and plan)")
	flag.StringVar(&f.inject, "inject", "", "deterministic fault spec, e.g. 'panic@shard1:tuple5000' or 'delay@shard0:tuple100:2ms'; implies supervision")
	flag.StringVar(&f.queries, "queries", "", "multi-query spec file: run every listed query on one shared-window MultiJoin (see cmd/qdhjrun/multi.go for the format); with -explain, print the sharing structure instead of running")
	flag.BoolVar(&f.replan, "replan", false, "online re-planning: measure rates and selectivities on the running join and live-migrate between shapes; starts from -plan (default flat)")
	flag.Float64Var(&f.replanP, "replan-period", 0, "re-planning measurement period (seconds; default: the -P measurement period)")
	flag.BoolVar(&f.explainLive, "explain-live", false, "with -replan: print the plan graph before and after every live migration (implies -replan)")
	flag.StringVar(&workers, "workers", "", "comma-separated qdhjd worker addresses: run the join's partition workers as external daemons, one per shard")
	flag.IntVar(&f.frameBatch, "framebatch", 0, "with -workers: tuple messages per wire frame (0 = default 128; 1 = per-tuple framing); results are identical at any size")
	flag.Parse()
	f.workers = splitAddrs(workers)
	if err := flagConflict(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	f.replan = f.replan || f.explainLive
	acfg := adapt.Config{
		Gamma: f.gamma,
		P:     seconds(f.P),
		L:     seconds(f.L),
	}
	if f.strategy == "eqsel" {
		acfg.Strategy = adapt.EqSel
	}
	if f.queries != "" {
		runMulti(f.in, f.queries, acfg, f.policy, f.gamma, f.k, f.explain)
		return
	}
	if f.explain {
		runExplain(f.in, f.query, f.planSpec, f.shards)
		return
	}
	if f.in == "" {
		flag.Usage()
		os.Exit(2)
	}
	ds := readDataset(f.in)
	ds.Cond = queryFor(f.query, ds.M)

	var pf feedback.PolicyFactory
	switch f.policy {
	case "model":
		pf = feedback.ModelPolicy()
	case "maxk":
		pf = feedback.MaxKPolicy()
	case "nok":
		pf = feedback.NoKPolicy()
	case "static":
		pf = feedback.StaticPolicy(seconds(f.k))
	default:
		fatal(fmt.Errorf("unknown policy %q", f.policy))
	}

	fmt.Fprintf(os.Stderr, "computing oracle ground truth...\n")
	truth := oracle.TrueResults(ds.Cond, ds.Windows, ds.Arrivals)

	if f.planSpec != "" || f.shards > 0 || f.ckptFile != "" || f.restore != "" || f.inject != "" || f.replan || len(f.workers) > 0 {
		runPlanned(ds, truth, acfg, f)
		return
	}

	eds := &exp.Dataset{Dataset: ds, Truth: truth}
	s := exp.Run(eds, acfg, pf)

	fmt.Printf("dataset:        %s (%d tuples, %d streams)\n", ds.Name, len(ds.Arrivals), ds.M)
	fmt.Printf("policy:         %s  Γ=%g  P=%v  L=%v\n", f.policy, f.gamma, acfg.P, acfg.L)
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

// seconds converts a flag given in seconds to logical time.
func seconds(s float64) stream.Time { return stream.Time(s * float64(stream.Second)) }

// runExplain prints the plan graph for a query without running it; the
// dataset is optional (its arity and windows are used when present).
func runExplain(in, query, spec string, shards int) {
	var m int
	var windows []stream.Time
	if in != "" {
		ds := readDataset(in)
		m, windows = ds.M, ds.Windows
	} else {
		m, windows = explainStreams(query)
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

// explainStreams returns the arity of a fixed-arity query (x2|x3|x4) and
// the 2 s windows -explain assumes without -in; it exits on other queries.
func explainStreams(query string) (int, []stream.Time) {
	m := map[string]int{"x2": 2, "x3": 3, "x4": 4}[query]
	if m == 0 {
		fatal(fmt.Errorf("-explain without -in needs fixed-arity queries (x2|x3|x4), got %q", query))
	}
	windows := make([]stream.Time, m)
	for i := range windows {
		windows[i] = 2 * stream.Second
	}
	return m, windows
}

// readDataset reads a qdhjgen CSV, exiting on failure.
func readDataset(path string) *gen.Dataset {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	ds, err := gen.ReadCSV(f)
	if err != nil {
		fatal(err)
	}
	return ds
}

// errFlagConflict is the documented typed error behind every invalid flag
// combination: qdhjrun prints an error chain that errors.Is(err,
// errFlagConflict) recognizes and exits with code 2.
var errFlagConflict = errors.New("conflicting flags")

func conflict(msg string) error {
	return fmt.Errorf("qdhjrun: %w: %s", errFlagConflict, msg)
}

// runFlags is the command line of one run.
type runFlags struct {
	in, query, strategy       string
	policy                    string
	planSpec                  string
	shards                    int
	k, gamma, P, L            float64 // as typed; -k, -P and -L are in seconds
	explain                   bool
	ckptFile, restore, inject string
	ckptAt                    int
	queries                   string
	workers                   []string
	frameBatch                int
	replan, explainLive       bool
	replanP                   float64 // -replan-period, in seconds
}

// features maps the flags onto the option matrix's deployment features.
// -shards maps to none: every planned run deploys a -plan, and -shards is
// its budget.
func (f runFlags) features() plan.Feature {
	_, tree := plan.SpecShape(f.planSpec, f.shards)
	return plan.Restored.If(f.restore != "") | plan.Remote.If(len(f.workers) > 0) |
		plan.Planned.If(f.planSpec != "") | plan.TreePlanned.If(tree) |
		plan.Injected.If(f.inject != "") | plan.Replanned.If(f.replan || f.explainLive)
}

// flagConflict validates one flag combination and returns the first
// conflict found (wrapping errFlagConflict), or nil: the option matrix and
// the worker-count rule of internal/plan, and the rules only the command
// line has. Out-of-range numbers are rejected here too, before anything
// downstream can clamp or default them silently while the report line
// echoes what the user typed.
//
// The -queries × -inject rule deserves its history: the two flags used to
// compose silently, but fault injection is not wired through the
// shared-window multi-query engine — MultiJoin.Push never consults an
// injector, so the armed faults would simply never fire and the run would
// masquerade as a passed recovery test.
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
	case f.strategy != "eqsel" && f.strategy != "noneqsel":
		return conflict(fmt.Sprintf("-strategy %q: the selectivity strategy is eqsel or noneqsel", f.strategy))
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
	// -shards is the budget of the specs that read one: none, auto, and a
	// bare shard or tree-shard. Any other spec would silently ignore it,
	// unless it names the same count.
	if name, arg, hasArg := strings.Cut(strings.TrimSpace(f.planSpec), ":"); f.shards > 0 && name != "" && name != "auto" {
		n, err := strconv.Atoi(arg)
		if (name != "shard" && name != "tree-shard") || hasArg && (err != nil || n != f.shards) {
			return conflict(fmt.Sprintf("-plan %q ignores -shards %d: only -plan auto (or none) and a bare shard or tree-shard read it; name the count in the plan instead", f.planSpec, f.shards))
		}
	}
	// Both the plan's shard count and -shards, as typed, must match the
	// workers.
	n, _ := plan.SpecShape(resolvePlanSpec(f.planSpec, len(f.workers), false), f.shards)
	r := f.features().Refuse(n, len(f.workers))
	if r == nil {
		r = plan.Sharded.Refuse(f.shards, len(f.workers))
	}
	if r != nil {
		return conflict(r.Message(plan.CLI))
	}
	if f.frameBatch > 0 && len(f.workers) == 0 {
		return conflict("-framebatch tunes the wire framing of a networked run; it needs -workers")
	}
	return nil
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

// options maps the adaptation config, Γ and a -policy name (model, maxk,
// nok or static with -k seconds) onto the library's Options.
func options(acfg adapt.Config, gamma float64, policy string, k float64) qdhj.Options {
	opt := qdhj.Options{Gamma: gamma, Period: acfg.P, Interval: acfg.L, Strategy: acfg.Strategy}
	switch policy {
	case "maxk":
		opt.Policy = qdhj.MaxSlack
	case "nok":
		opt.Policy = qdhj.NoSlack
	case "static":
		opt.Policy, opt.StaticK = qdhj.StaticSlack, seconds(k)
	}
	return opt
}

// runPlanned replays the dataset through an explicitly planned deployment
// (the NewJoin + WithPlan path) and reports recall against the oracle.
// With -checkpoint it stops partway and writes a snapshot; with -restore it
// resumes from one; with -inject it runs supervised under deterministic
// fault injection; with -replan it re-plans online and live-migrates.
func runPlanned(ds *gen.Dataset, truth *oracle.Index, acfg adapt.Config, f runFlags) {
	spec := resolvePlanSpec(f.planSpec, len(f.workers), f.replan)
	p, err := qdhj.ParsePlan(spec, ds.Cond, ds.Windows, f.shards)
	if err != nil {
		fatal(err)
	}
	fmt.Fprint(os.Stderr, qdhj.Explain(p))
	opt := options(acfg, acfg.Gamma, f.policy, f.k)
	jopts := []qdhj.JoinOption{qdhj.WithPlan(p)}
	if len(f.workers) > 0 {
		jopts = append(jopts, qdhj.WithRemoteWorkers(f.workers...))
		if f.frameBatch > 0 {
			jopts = append(jopts, qdhj.WithFrameBatch(f.frameBatch))
		}
		fmt.Fprintf(os.Stderr, "networked: %d workers (%s)\n", len(f.workers), strings.Join(f.workers, ", "))
		if f.ckptFile == "" && f.restore == "" {
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
	if period := seconds(f.replanP); f.replan {
		if period == 0 {
			period = acfg.P
		}
		jopts = append(jopts, qdhj.WithOnlineReplan(qdhj.ReplanOptions{
			Hints:  qdhj.PlanHints{Shards: f.shards},
			Period: period,
			OnMigrate: func(ev qdhj.MigrationEvent) {
				migrations++
				totalPause += ev.Pause
				if ev.Pause > maxPause {
					maxPause = ev.Pause
				}
				fmt.Fprintf(os.Stderr, "migrate: %s → %s at ts=%d (replayed %d, pause %v)\n",
					ev.From, ev.To, ev.At, ev.Replayed, ev.Pause)
				if f.explainLive {
					fmt.Fprintf(os.Stderr, "-- before --\n%s-- after --\n%s", ev.FromExplain, ev.ToExplain)
				}
			},
		}))
	}
	if f.inject != "" {
		inj, err := qdhj.ParseInjectSpec(f.inject)
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
	if f.restore != "" {
		consumed, snap, err := readSnapFile(f.restore)
		if err != nil {
			fatal(err)
		}
		j, err = qdhj.Restore(snap, ds.Cond, ds.Windows, opt, jopts...)
		if err != nil {
			fatal(err)
		}
		start = consumed
		fmt.Fprintf(os.Stderr, "restored %s at arrival %d of %d\n", f.restore, consumed, len(arrivals))
	} else {
		j = qdhj.NewJoin(ds.Cond, ds.Windows, opt, jopts...)
	}
	ckAt := -1
	if f.ckptFile != "" {
		ckAt = f.ckptAt
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
			if err := writeSnapFile(f.ckptFile, i+1, snap); err != nil {
				fatal(err)
			}
			j.Close()
			fmt.Printf("checkpoint:     %s at arrival %d of %d (signature %s)\n",
				f.ckptFile, i+1, len(arrivals), snap.Signature())
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
	fmt.Printf("execution:      planned (%s), %s  Γ=%g  P=%v  L=%v\n", spec, f.policy, acfg.Gamma, acfg.P, acfg.L)
	fmt.Printf("produced:       %d of %d true results (overall recall %.4f)\n",
		j.Results(), truth.Total(), recall)
	if n := j.Restarts(); n > 0 {
		fmt.Printf("restarts:       %d (all recovered)\n", n)
	}
	if f.replan {
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
