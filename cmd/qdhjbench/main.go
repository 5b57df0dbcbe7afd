// Command qdhjbench reproduces the paper's evaluation (Sec. VI): every
// table and figure can be regenerated individually or all at once.
//
// Usage:
//
//	qdhjbench -exp all -minutes 5
//	qdhjbench -exp fig7 -datasets x2,x3 -minutes 10 -seed 7
//
// Experiments: fig6, table2, fig7, fig8, fig9, fig10, fig11, ablations, all.
// Durations default to 5 simulated minutes per dataset; the paper used
// 23–30 minutes, which `-minutes 25` replays in a few minutes of real time.
//
// With -benchjson FILE the tool instead measures raw operator throughput
// (the join executor without disorder handling) per dataset and writes a
// machine-readable JSON report, so the repository's performance trajectory
// can be recorded across PRs. The report sweeps the sharded execution
// layer over -shards (default 1,2,4,8; 1 is the classic single-threaded
// path), recording the host's CPU budget alongside, since shard speedup is
// bounded by available cores:
//
//	qdhjbench -benchjson BENCH_3.json -shards 1,2,4,8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	stdnet "net"
	"os"
	"runtime"
	"strings"
	"time"

	qdhj "repro"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/join"
	qnet "repro/internal/net"
	"repro/internal/stream"
)

func main() {
	var (
		expName   = flag.String("exp", "all", "experiment: fig6|table2|fig7|fig8|fig9|fig10|fig11|ablations|all")
		minutes   = flag.Float64("minutes", 5, "simulated stream horizon per dataset (paper: 23-30)")
		seed      = flag.Int64("seed", 42, "generator seed")
		datasets  = flag.String("datasets", "x2,x3,x4", "comma-separated dataset keys")
		benchJSON = flag.String("benchjson", "", "write an operator-throughput JSON report to this file and exit")
		shards    = flag.String("shards", "1,2,4,8", "comma-separated shard counts for the -benchjson sweep")
		cpus      = flag.Int("cpus", 0, "GOMAXPROCS for the run (0 keeps the runtime default); recorded in the report")
	)
	flag.Parse()
	if *cpus > 0 {
		runtime.GOMAXPROCS(*cpus)
	}

	keys := strings.Split(*datasets, ",")
	start := time.Now()
	var dss []*exp.Dataset
	for _, k := range keys {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		fmt.Fprintf(os.Stderr, "preparing %s (%.1f min, seed %d)...\n", k, *minutes, *seed)
		dss = append(dss, exp.Prepare(k, *minutes, *seed))
	}
	fmt.Fprintf(os.Stderr, "datasets ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *minutes, *seed, parseShards(*shards), dss); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s in %v\n", *benchJSON, time.Since(start).Round(time.Millisecond))
		return
	}

	w := os.Stdout
	run := func(name string) {
		switch name {
		case "fig6":
			exp.Fig6(w, dss)
		case "table2":
			exp.Table2(w, dss)
		case "fig7":
			exp.Fig7(w, dss)
		case "fig8":
			exp.Fig8(w, pick(dss, exp.KeyX2, exp.KeyX3))
		case "fig9":
			exp.Fig9(w, pick(dss, exp.KeyX2, exp.KeyX3))
		case "fig10":
			exp.Fig10(w, pick(dss, exp.KeyX2, exp.KeyX3))
		case "fig11":
			exp.Fig11(w, dss)
		case "ablations":
			exp.Ablations(w, dss)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Fprintln(w)
	}
	if *expName == "all" {
		for _, n := range []string{"fig6", "table2", "fig7", "fig8", "fig9", "fig10", "fig11", "ablations"} {
			run(n)
		}
	} else {
		run(*expName)
	}
	fmt.Fprintf(os.Stderr, "total wall time %v\n", time.Since(start).Round(time.Millisecond))
}

// parseShards parses the -shards list, defaulting to {1} on garbage.
func parseShards(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err == nil && n >= 1 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// benchEntry is one dataset × configuration throughput measurement. Mode
// "operator" entries sweep the sharded MJoin operator (Shards 1 is the
// classic single-threaded path); mode "tree" entries sweep the binary-tree
// deployment's adaptation policies (fixed-K at the dataset's max delay,
// Same-K-adaptive, per-stage-adaptive); mode "plan" entries (schema v4)
// sweep the deployment planner's shapes on the sparse star workload —
// flat, broadcast flat shards, and the stage-wise sharded tree — at full
// buffering, so result counts must be identical across shapes. RelRecall
// is the tree run's result count relative to its fixed-K (full-buffering)
// run; SumBufKSec is the total buffered delay Σ_intervals Σ_buffers K in
// seconds — the aggregate latency the adaptation paid, which per-stage K
// exists to shrink.
// Mode "fault" entries (schema v4) sweep the fault-tolerant runtime:
// FaultOp "checkpoint-overhead" runs supervised — arrival logging, gated
// delivery, automatic boundary checkpoints at the default cadence — on the
// same feed as a bare executor. CkptOverhead is the fraction of the
// supervised run's wall time spent inside checkpoint captures (measured
// directly, so it is robust to machine noise); SupOverhead is the whole
// supervised-vs-bare throughput ratio minus one (best run of five each,
// interleaved — still a difference of two wall times, so read it with the
// usual single-machine error bars); Checkpoints counts the captures.
// FaultOp "recovery" injects deterministic worker panics and records the
// restarts and the wall time spent inside checkpoint-restore-replay
// recoveries.
// Mode "replan" entries (schema v4) sweep the online re-planner on the
// phase-flipping star workload: Migrations counts completed live plan
// migrations, PauseTotalSec/PauseMaxSec the wall-clock stalls they imposed
// on the driver (the acceptance bound is PauseMaxSec well under one
// measurement period — the re-planning cadence, recorded as
// ReplanPeriodSec in stream seconds), and PhaseRecall the per-phase result
// counts relative to the uninterrupted full-buffering flat reference
// (shape "flat-static"). A full-buffering run under re-planning must score
// exactly 1 in every phase: migration preserves the delivered multiset.
// Mode "net" entries (schema v4) sweep the wire framing of the networked
// worker runtime: the same NoSlack sharded join deployed onto localhost
// worker daemons via WithRemoteWorkers, at frame batch sizes 1, 16, 64 and
// 256 (Batch; 1 is per-tuple framing — one frame and one write syscall per
// tuple). Batch cuts are a pure function of the input, so the result count
// must be identical at every size; only throughput moves. The acceptance
// floor is batch-64 at ≥5× the per-tuple rate.
// Mode "multi" entries (schema v4) sweep the shared-window multi-query
// engine: Queries identical NoSlack queries run once on one MultiJoin
// (shape "shared") versus Queries independent Joins each replaying the
// whole feed (shape "independent"). Throughput is feed tuples per second —
// the aggregate rate at which the deployment serves all queries — and the
// per-query result counts must be identical between the two shapes at
// every query count.
//
// Schema history — v5: mode batch removed (the probe-side batch-release
// layer it swept is gone; Batch now only carries mode "net"'s frame batch).
type benchEntry struct {
	Dataset         string    `json:"dataset"`
	Mode            string    `json:"mode"`
	Queries         int       `json:"queries,omitempty"`
	Shards          int       `json:"shards,omitempty"`
	Batch           int       `json:"batch,omitempty"`
	Partition       string    `json:"partition,omitempty"`
	TreeAdapt       string    `json:"tree_adapt,omitempty"`
	Shape           string    `json:"shape,omitempty"`
	FaultOp         string    `json:"fault_op,omitempty"`
	Tuples          int       `json:"tuples"`
	Results         int64     `json:"results"`
	RelRecall       float64   `json:"rel_recall,omitempty"`
	SumBufKSec      float64   `json:"sum_buf_k_sec,omitempty"`
	Checkpoints     int64     `json:"checkpoints,omitempty"`
	CkptOverhead    float64   `json:"ckpt_overhead,omitempty"`
	SupOverhead     float64   `json:"sup_overhead,omitempty"`
	Restarts        int       `json:"restarts,omitempty"`
	RecoverySec     float64   `json:"recovery_sec,omitempty"`
	Migrations      int       `json:"migrations,omitempty"`
	PauseTotalSec   float64   `json:"pause_total_sec,omitempty"`
	PauseMaxSec     float64   `json:"pause_max_sec,omitempty"`
	ReplanPeriodSec float64   `json:"replan_period_sec,omitempty"`
	PhaseRecall     []float64 `json:"phase_recall,omitempty"`
	Seconds         float64   `json:"seconds"`
	TuplesPerSec    float64   `json:"tuples_per_s"`
	AllocsPerTuple  float64   `json:"allocs_per_tuple"`
	BytesPerTuple   float64   `json:"bytes_per_tuple"`
}

// benchReport is the machine-readable throughput record. GoMaxProcs is the
// scheduler's parallelism budget at measurement time — NumCPU is the
// machine, GoMaxProcs is what the run was actually allowed to use (they
// differ under -cpus or a GOMAXPROCS env override), and shard/worker
// speedups must be read against the latter.
type benchReport struct {
	Schema     string       `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	NumCPU     int          `json:"num_cpu"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Minutes    float64      `json:"minutes"`
	Seed       int64        `json:"seed"`
	Entries    []benchEntry `json:"entries"`
}

// runBenchJSON measures raw MSWJ operator throughput (NoSlack policy,
// counting-only probe path) on each dataset × shard count and writes the
// JSON report.
func runBenchJSON(path string, minutes float64, seed int64, shardCounts []int, dss []*exp.Dataset) error {
	rep := benchReport{
		Schema:     "qdhj-operator-throughput/5",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Minutes:    minutes,
		Seed:       seed,
	}
	for _, ds := range dss {
		for _, nShards := range shardCounts {
			in := ds.Arrivals.Clone()
			opts := []qdhj.JoinOption{}
			part := ""
			if nShards > 1 {
				opts = append(opts, qdhj.WithShards(nShards))
				part = ds.Cond.Partition().Mode.String()
			}
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			j := qdhj.NewJoin(ds.Cond, ds.Windows, qdhj.Options{Policy: qdhj.NoSlack}, opts...)
			for _, e := range in {
				j.Push(e)
			}
			j.Close()
			dt := time.Since(t0).Seconds()
			runtime.ReadMemStats(&m1)
			n := len(in)
			rep.Entries = append(rep.Entries, benchEntry{
				Dataset:        ds.Name,
				Mode:           "operator",
				Shards:         nShards,
				Partition:      part,
				Tuples:         n,
				Results:        j.Results(),
				Seconds:        dt,
				TuplesPerSec:   float64(n) / dt,
				AllocsPerTuple: float64(m1.Mallocs-m0.Mallocs) / float64(n),
				BytesPerTuple:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
			})
			fmt.Fprintf(os.Stderr, "%-22s shards=%d %9d tuples  %12.0f tuples/s  %6.2f allocs/tuple\n",
				ds.Name, nShards, n, float64(n)/dt, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		}
	}
	rep.Entries = append(rep.Entries, benchTree(minutes, seed)...)
	rep.Entries = append(rep.Entries, benchPlanX4(minutes, seed, shardCounts)...)
	rep.Entries = append(rep.Entries, benchFault(minutes, seed)...)
	rep.Entries = append(rep.Entries, benchReplan(minutes, seed)...)
	rep.Entries = append(rep.Entries, benchMulti(minutes, seed)...)
	rep.Entries = append(rep.Entries, benchNet(minutes, seed)...)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// treeDataset builds the tree-sweep workload: a sparse-key (domain 500)
// disordered 3-way equi join with asymmetric per-stream delays (streams 0/1
// ≤ 150 ms, stream 2 ≤ 2.5 s). The paper's evaluation datasets are dense —
// a 5-minute x3 derives hundreds of millions of results, which the tree
// would materialize one intermediate at a time — while tree deployments
// target exactly this low-selectivity regime; the asymmetry is what the
// per-stage policy exists to exploit.
func treeDataset(minutes float64, seed int64) (stream.Batch, *join.Condition, []stream.Time) {
	n := int(minutes * float64(stream.Minute) / 10)
	in := gen.SparseEqui3(n, seed, 500, [3]stream.Time{150, 150, 2500})
	w := 2 * stream.Second
	return in, join.EquiChain(3, 0), []stream.Time{w, w, w}
}

// benchTree sweeps the binary-tree deployment's adaptation policies on the
// sparse asymmetric-delay tree workload: fixed-K at the feed's maximum
// delay (the full-buffering reference all RelRecall values are measured
// against), Same-K-adaptive, and per-stage-adaptive (Γ = 0.95, the paper's
// default requirement).
func benchTree(minutes float64, seed int64) []benchEntry {
	arrivals, cond, windows := treeDataset(minutes, seed)
	maxD, _ := arrivals.MaxDelay()
	aopt := qdhj.Options{Gamma: 0.95, Period: 30 * qdhj.Second, Interval: qdhj.Second}
	configs := []struct {
		name     string
		initialK qdhj.Time
		opts     []qdhj.TreeOption
	}{
		{"fixed", maxD, nil},
		{"same-k", 0, []qdhj.TreeOption{qdhj.WithTreeAdaptation(aopt)}},
		{"per-stage", 0, []qdhj.TreeOption{qdhj.WithTreeAdaptation(aopt), qdhj.WithPerStageK()}},
	}
	var out []benchEntry
	var fixedResults int64
	for _, c := range configs {
		in := arrivals.Clone()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		j := qdhj.NewTreeJoin(cond, windows, c.initialK, nil, c.opts...)
		for _, e := range in {
			j.Push(e)
		}
		j.Close()
		dt := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		n := len(in)
		e := benchEntry{
			Dataset:        "tree-sparse-x3",
			Mode:           "tree",
			TreeAdapt:      c.name,
			Tuples:         n,
			Results:        j.Results(),
			SumBufKSec:     j.BufferedDelaySum() / 1000,
			Seconds:        dt,
			TuplesPerSec:   float64(n) / dt,
			AllocsPerTuple: float64(m1.Mallocs-m0.Mallocs) / float64(n),
			BytesPerTuple:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		}
		if c.name == "fixed" {
			fixedResults = j.Results()
		} else if fixedResults > 0 {
			e.RelRecall = float64(j.Results()) / float64(fixedResults)
		}
		out = append(out, e)
		fmt.Fprintf(os.Stderr, "%-22s tree/%-9s %9d tuples  %12.0f tuples/s  recall≈%.4f  ΣK=%.0fs\n",
			"tree-sparse-x3", c.name, n, e.TuplesPerSec, e.RelRecall, e.SumBufKSec)
	}
	return out
}

// benchPlanX4 sweeps the deployment planner's shapes on a sparse-key
// disordered 4-way star (schema v4): the flat operator, the broadcast flat
// shards (the condition has no full key class, so plain WithShards must
// broadcast the spokes), and the auto-planned stage-wise sharded tree —
// every binary stage hash-partitioned on its own cross key, no broadcast
// route. All runs use fixed full buffering (K = max delay), so the result
// counts must be identical across shapes; the sweep records throughput.
// The paper's dense x4 is unusable here — a tree materializes every
// intermediate — hence the sparse workload, exactly as benchTree's.
func benchPlanX4(minutes float64, seed int64, shardCounts []int) []benchEntry {
	n := int(minutes * float64(stream.Minute) / 10)
	arrivals := gen.SparseStar4(n, seed, 500, [4]stream.Time{500, 500, 500, 500})
	maxD, _ := arrivals.MaxDelay()
	w := []stream.Time{2 * stream.Second, 2 * stream.Second, 2 * stream.Second, 2 * stream.Second}
	star := func() *join.Condition { return join.Star(4, []int{0, 1, 2}, []int{0, 0, 0}) }
	opt := qdhj.Options{Policy: qdhj.StaticSlack, StaticK: maxD}

	type cfg struct {
		shape  string
		shards int
		build  func() (*qdhj.Join, string)
	}
	var cfgs []cfg
	cfgs = append(cfgs, cfg{"flat", 1, func() (*qdhj.Join, string) {
		return qdhj.NewJoin(star(), w, opt), ""
	}})
	for _, nShards := range shardCounts {
		if nShards <= 1 {
			continue
		}
		nShards := nShards
		cfgs = append(cfgs,
			cfg{"shard-broadcast", nShards, func() (*qdhj.Join, string) {
				c := star()
				return qdhj.NewJoin(c, w, opt, qdhj.WithShards(nShards)), c.Partition().Mode.String()
			}},
			cfg{"stage-sharded", nShards, func() (*qdhj.Join, string) {
				c := star()
				p := qdhj.AutoPlan(c, w, qdhj.PlanHints{Shards: nShards})
				return qdhj.NewJoin(c, w, opt, qdhj.WithPlan(p)), "stage-equi"
			}})
	}

	var out []benchEntry
	var flatResults int64
	for _, c := range cfgs {
		in := arrivals.Clone()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		j, part := c.build()
		for _, e := range in {
			j.Push(e)
		}
		j.Close()
		dt := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		e := benchEntry{
			Dataset:        "star-sparse-x4",
			Mode:           "plan",
			Shape:          c.shape,
			Shards:         c.shards,
			Partition:      part,
			Tuples:         len(in),
			Results:        j.Results(),
			Seconds:        dt,
			TuplesPerSec:   float64(len(in)) / dt,
			AllocsPerTuple: float64(m1.Mallocs-m0.Mallocs) / float64(len(in)),
			BytesPerTuple:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(in)),
		}
		if c.shape == "flat" {
			flatResults = j.Results()
		} else if j.Results() != flatResults {
			fmt.Fprintf(os.Stderr, "WARNING: %s/%d produced %d results, flat produced %d — shapes must agree at full buffering\n",
				c.shape, c.shards, j.Results(), flatResults)
		}
		out = append(out, e)
		fmt.Fprintf(os.Stderr, "%-22s plan/%-15s shards=%d %8d tuples  %12.0f tuples/s  %d results\n",
			"star-sparse-x4", c.shape, c.shards, len(in), e.TuplesPerSec, e.Results)
	}
	return out
}

// benchFault sweeps the fault-tolerant runtime on the sparse tree workload
// (the same feed as benchTree, adaptive policy) for the flat sharded and
// stage-sharded tree shapes. Per shape it measures (1) the steady-state
// cost of running supervised — arrival logging, delivery gating and the
// default once-per-measurement-period checkpoint cadence — relative to the
// bare executor (both best of five runs, to keep the small ratio out of
// the timing noise), and (2) the wall time spent recovering from two
// injected worker panics.
func benchFault(minutes float64, seed int64) []benchEntry {
	arrivals, cond, windows := treeDataset(minutes, seed)
	opt := qdhj.Options{Gamma: 0.95, Period: 30 * qdhj.Second, Interval: qdhj.Second}
	var out []benchEntry
	for _, spec := range []string{"shard:2", "tree-shard:2"} {
		mkOpts := func(extra ...qdhj.JoinOption) []qdhj.JoinOption {
			p, err := qdhj.ParsePlan(spec, cond, windows, 0)
			if err != nil {
				panic(err)
			}
			return append([]qdhj.JoinOption{qdhj.WithPlan(p)}, extra...)
		}
		measure := func(jopts []qdhj.JoinOption) (*qdhj.Join, benchEntry) {
			in := arrivals.Clone()
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			j := qdhj.NewJoin(cond, windows, opt, jopts...)
			for _, e := range in {
				j.Push(e)
			}
			j.Close()
			dt := time.Since(t0).Seconds()
			runtime.ReadMemStats(&m1)
			n := len(in)
			return j, benchEntry{
				Dataset:        "tree-sparse-x3",
				Mode:           "fault",
				Shape:          spec,
				Tuples:         n,
				Results:        j.Results(),
				Seconds:        dt,
				TuplesPerSec:   float64(n) / dt,
				AllocsPerTuple: float64(m1.Mallocs-m0.Mallocs) / float64(n),
				BytesPerTuple:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
			}
		}

		// Bare executor vs supervised (default checkpoint cadence), the
		// reps interleaved so both see the same machine conditions; the
		// overhead ratio compares the best run of each.
		bareOpts := mkOpts()
		supOpts := mkOpts(qdhj.WithSupervision(qdhj.Supervision{}))
		var j *qdhj.Join
		var base, sup benchEntry
		for i := 0; i < 5; i++ {
			if _, e := measure(bareOpts); i == 0 || e.Seconds < base.Seconds {
				base = e
			}
			if bj, e := measure(supOpts); i == 0 || e.Seconds < sup.Seconds {
				j, sup = bj, e
			}
		}
		sup.FaultOp = "checkpoint-overhead"
		sup.Checkpoints = int64(j.Checkpoints())
		sup.CkptOverhead = j.CheckpointTime().Seconds() / sup.Seconds
		sup.SupOverhead = sup.Seconds/base.Seconds - 1
		out = append(out, sup)
		fmt.Fprintf(os.Stderr, "%-22s fault/%-12s %-19s %9d tuples  %12.0f tuples/s  %d ckpts  ckpt %.2f%%  supervised %+.2f%%\n",
			"tree-sparse-x3", spec, "ckpt-overhead", sup.Tuples, sup.TuplesPerSec,
			sup.Checkpoints, 100*sup.CkptOverhead, 100*sup.SupOverhead)

		// Supervised with two injected worker kills: recovery wall time is
		// the time spent inside the Push calls whose restart count moved.
		n := int64(len(arrivals))
		inj := qdhj.NewInjector().PanicAt(0, n/3).PanicAt(1, 2*n/3)
		in := arrivals.Clone()
		jf := qdhj.NewJoin(cond, windows, opt, mkOpts(
			qdhj.WithInjector(inj), qdhj.WithSupervision(qdhj.Supervision{}))...)
		var recovery time.Duration
		prevRestarts := 0
		t0 := time.Now()
		for _, e := range in {
			p0 := time.Now()
			jf.Push(e)
			if r := jf.Restarts(); r != prevRestarts {
				recovery += time.Since(p0)
				prevRestarts = r
			}
		}
		jf.Close()
		dt := time.Since(t0).Seconds()
		if err := jf.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "WARNING: fault sweep %s went terminal: %v\n", spec, err)
			continue
		}
		rec := benchEntry{
			Dataset:      "tree-sparse-x3",
			Mode:         "fault",
			Shape:        spec,
			FaultOp:      "recovery",
			Tuples:       len(in),
			Results:      jf.Results(),
			Restarts:     jf.Restarts(),
			RecoverySec:  recovery.Seconds(),
			Seconds:      dt,
			TuplesPerSec: float64(len(in)) / dt,
		}
		if jf.Results() != base.Results {
			fmt.Fprintf(os.Stderr, "WARNING: recovered run produced %d results, bare run %d — must agree\n",
				jf.Results(), base.Results)
		}
		out = append(out, rec)
		fmt.Fprintf(os.Stderr, "%-22s fault/%-12s %-19s %9d tuples  %12.0f tuples/s  %d restarts  recovery %.3fs\n",
			"tree-sparse-x3", spec, "recovery", rec.Tuples, rec.TuplesPerSec, rec.Restarts, rec.RecoverySec)
	}
	return out
}

// benchReplan sweeps the online re-planner on the phase-flipping star
// workload: four phases alternating dense (domain 12) and sparse (domain
// 600) keys, the regime boundary where the measured-stats cost model must
// flip the live plan between the flat operator and the binary tree at each
// phase change. "flat-static" is the uninterrupted full-buffering flat
// reference every PhaseRecall is measured against; "replan-static" runs
// the same full-buffering policy under WithOnlineReplan, so its recall
// must be exactly 1 in every phase — the migrations are invisible in the
// result stream; "replan-adaptive" runs the quality-driven policy
// (Γ = 0.95) under re-planning, where recall tracks the buffer-shrinking
// adaptation, not the migrations. Migration pause is wall time the driver
// spent inside plan.Migrate; the acceptance bound is max pause ≤ one
// measurement period.
func benchReplan(minutes float64, seed int64) []benchEntry {
	const phases = 4
	ticks := int(minutes * float64(stream.Minute) / 10)
	per := ticks / phases
	if per < 1 {
		per = 1
	}
	in := gen.PhaseFlipStar4(phases, per, seed, 12, 600, 200)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{600, 600, 600, 600}
	star := func() *join.Condition { return join.Star(4, []int{0, 1, 2}, []int{0, 0, 0}) }
	phaseLen := stream.Time(per) * 10
	phaseOf := func(ts stream.Time) int {
		p := int((ts - 5001) / phaseLen)
		if p < 0 {
			p = 0
		}
		if p >= phases {
			p = phases - 1
		}
		return p
	}
	replanPeriod := 5 * stream.Second

	cfgs := []struct {
		shape  string
		opt    qdhj.Options
		replan bool
	}{
		{"flat-static", qdhj.Options{Policy: qdhj.StaticSlack, StaticK: maxD}, false},
		{"replan-static", qdhj.Options{Policy: qdhj.StaticSlack, StaticK: maxD}, true},
		{"replan-adaptive", qdhj.Options{Gamma: 0.95, Period: 30 * qdhj.Second, Interval: qdhj.Second}, true},
	}
	var out []benchEntry
	var ref []int64
	for _, c := range cfgs {
		feed := in.Clone()
		counts := make([]int64, phases)
		jopts := []qdhj.JoinOption{
			qdhj.WithResults(func(r qdhj.Result) { counts[phaseOf(r.TS)]++ }),
		}
		var pauseTotal, pauseMax time.Duration
		if c.replan {
			jopts = append(jopts, qdhj.WithOnlineReplan(qdhj.ReplanOptions{
				Period:      replanPeriod,
				MinDwell:    2 * replanPeriod,
				Improvement: 1.25,
				OnMigrate: func(ev qdhj.MigrationEvent) {
					pauseTotal += ev.Pause
					if ev.Pause > pauseMax {
						pauseMax = ev.Pause
					}
				},
			}))
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		j := qdhj.NewJoin(star(), w, c.opt, jopts...)
		for _, e := range feed {
			j.Push(e)
		}
		j.Close()
		dt := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		n := len(feed)
		e := benchEntry{
			Dataset:        "flip-star-x4",
			Mode:           "replan",
			Shape:          c.shape,
			Tuples:         n,
			Results:        j.Results(),
			Migrations:     j.Migrations(),
			PauseTotalSec:  pauseTotal.Seconds(),
			PauseMaxSec:    pauseMax.Seconds(),
			Seconds:        dt,
			TuplesPerSec:   float64(n) / dt,
			AllocsPerTuple: float64(m1.Mallocs-m0.Mallocs) / float64(n),
			BytesPerTuple:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		}
		if c.replan {
			e.ReplanPeriodSec = float64(replanPeriod) / float64(stream.Second)
		}
		if c.shape == "flat-static" {
			ref = counts
		} else {
			e.PhaseRecall = make([]float64, phases)
			for p := range e.PhaseRecall {
				if ref[p] > 0 {
					e.PhaseRecall[p] = float64(counts[p]) / float64(ref[p])
				}
			}
			if c.shape == "replan-static" {
				for p, r := range e.PhaseRecall {
					if r != 1 {
						fmt.Fprintf(os.Stderr, "WARNING: replan-static recall %.6f in phase %d — migration must preserve the result multiset\n", r, p)
					}
				}
			}
		}
		out = append(out, e)
		fmt.Fprintf(os.Stderr, "%-22s replan/%-15s %8d tuples  %12.0f tuples/s  %d migrations  pause max %.1fms  recall %v\n",
			"flip-star-x4", c.shape, n, e.TuplesPerSec, e.Migrations, 1000*e.PauseMaxSec, e.PhaseRecall)
	}
	return out
}

// benchMulti sweeps the shared-window multi-query engine (mode "multi"):
// N identical NoSlack equi-chain queries served by one MultiJoin replaying
// the feed once, versus N independent Joins each replaying the whole feed.
// The feed is the sparse symmetric-delay equi workload, capped so the
// N=1000 independent reference stays bearable (the shared run's cost grows
// with distinct probe prefixes, not with N — one residual class serves all
// N queries here — while the independent reference is inherently N full
// pipelines). Construction and feed cloning sit outside the timed region
// for both shapes; per-query result counts must be identical between the
// shapes at every N.
func benchMulti(minutes float64, seed int64) []benchEntry {
	ticks := int(minutes * float64(stream.Minute) / 10)
	if ticks > 4000 {
		ticks = 4000
	}
	in := gen.SparseEqui3(ticks, seed, 500, [3]stream.Time{150, 150, 150})
	w := []stream.Time{2 * stream.Second, 2 * stream.Second, 2 * stream.Second}
	cond := func() *join.Condition { return join.EquiChain(3, 0) }
	opt := qdhj.Options{Policy: qdhj.NoSlack}
	n := len(in)

	var out []benchEntry
	for _, nq := range []int{1, 2, 4, 8, 16, 64, 256, 1000} {
		// Shared: one MultiJoin carrying nq queries, the feed pushed once.
		feed := in.Clone()
		mj := qdhj.NewMultiJoin(3)
		mqs := make([]*qdhj.MultiQuery, nq)
		for i := range mqs {
			mqs[i] = mj.Add(cond(), w, opt)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, e := range feed {
			mj.Push(e)
		}
		mj.Close()
		dtShared := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		sharedResults := mqs[0].Results()
		for i, mq := range mqs {
			if mq.Results() != sharedResults {
				fmt.Fprintf(os.Stderr, "WARNING: shared query %d produced %d results, query 0 produced %d — identical queries must agree\n",
					i, mq.Results(), sharedResults)
			}
		}
		out = append(out, benchEntry{
			Dataset:        "multi-sparse-x3",
			Mode:           "multi",
			Shape:          "shared",
			Queries:        nq,
			Tuples:         n,
			Results:        sharedResults,
			Seconds:        dtShared,
			TuplesPerSec:   float64(n) / dtShared,
			AllocsPerTuple: float64(m1.Mallocs-m0.Mallocs) / float64(n),
			BytesPerTuple:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		})

		// Independent: nq standalone Joins, each replaying the whole feed;
		// the timed regions are summed across runs.
		var dtInd float64
		var indResults int64
		indAgree := true
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < nq; i++ {
			f := in.Clone()
			j := qdhj.NewJoin(cond(), w, opt)
			t0 := time.Now()
			for _, e := range f {
				j.Push(e)
			}
			j.Close()
			dtInd += time.Since(t0).Seconds()
			if i == 0 {
				indResults = j.Results()
			} else if j.Results() != indResults {
				indAgree = false
			}
		}
		runtime.ReadMemStats(&m1)
		if !indAgree || indResults != sharedResults {
			fmt.Fprintf(os.Stderr, "WARNING: independent runs produced %d results, shared produced %d — shapes must agree at every query count\n",
				indResults, sharedResults)
		}
		out = append(out, benchEntry{
			Dataset:        "multi-sparse-x3",
			Mode:           "multi",
			Shape:          "independent",
			Queries:        nq,
			Tuples:         n,
			Results:        indResults,
			Seconds:        dtInd,
			TuplesPerSec:   float64(n) / dtInd,
			AllocsPerTuple: float64(m1.Mallocs-m0.Mallocs) / float64(n) / float64(nq),
			BytesPerTuple:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n) / float64(nq),
		})
		fmt.Fprintf(os.Stderr, "%-22s multi N=%-5d %8d tuples  shared %12.0f tuples/s  independent %12.0f tuples/s  (%.1fx)  %d results\n",
			"multi-sparse-x3", nq, n, float64(n)/dtShared, float64(n)/dtInd, dtInd/dtShared, sharedResults)
	}
	return out
}

// benchNet sweeps the networked runtime's frame batch size (mode "net"):
// a 2-worker sharded NoSlack equi join on the sparse symmetric-delay feed,
// the workers being in-process Serve loops on loopback — the same code
// cmd/qdhjd runs, minus the process boundary, so the sweep isolates the
// framing cost (syscalls per tuple) rather than scheduler placement. The
// daemons persist across the sweep; each batch setting is a fresh session
// against the same pinned deployment.
func benchNet(minutes float64, seed int64) []benchEntry {
	ticks := int(minutes * float64(stream.Minute) / 10)
	in := gen.SparseEqui3(ticks, seed, 500, [3]stream.Time{150, 150, 150})
	w := []stream.Time{2 * stream.Second, 2 * stream.Second, 2 * stream.Second}
	const workers = 2

	addrs := make([]string, workers)
	var listeners []stdnet.Listener
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := range addrs {
		l, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "WARNING: net sweep skipped: %v\n", err)
			return nil
		}
		addrs[i] = l.Addr().String()
		listeners = append(listeners, l)
		go func() { _ = qnet.Serve(l, qnet.ServeConfig{}) }()
	}

	var out []benchEntry
	var refResults int64
	var perTupleRate float64
	for _, batch := range []int{1, 16, 64, 256} {
		feed := in.Clone()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		j := qdhj.NewJoin(join.EquiChain(3, 0), w, qdhj.Options{Policy: qdhj.NoSlack},
			qdhj.WithRemoteWorkers(addrs...), qdhj.WithFrameBatch(batch))
		for _, e := range feed {
			j.Push(e)
		}
		j.Close()
		dt := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		n := len(feed)
		tps := float64(n) / dt
		if batch == 1 {
			refResults, perTupleRate = j.Results(), tps
		} else if j.Results() != refResults {
			fmt.Fprintf(os.Stderr, "WARNING: net batch=%d produced %d results, per-tuple produced %d — framing must be bit-for-bit\n",
				batch, j.Results(), refResults)
		}
		out = append(out, benchEntry{
			Dataset:        "net-sparse-x3",
			Mode:           "net",
			Shards:         workers,
			Batch:          batch,
			Tuples:         n,
			Results:        j.Results(),
			Seconds:        dt,
			TuplesPerSec:   tps,
			AllocsPerTuple: float64(m1.Mallocs-m0.Mallocs) / float64(n),
			BytesPerTuple:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		})
		note := ""
		if batch == 64 && perTupleRate > 0 {
			note = fmt.Sprintf("  (%.1fx per-tuple)", tps/perTupleRate)
			if tps < 5*perTupleRate {
				fmt.Fprintf(os.Stderr, "WARNING: net batch=64 at %.1fx per-tuple — below the 5x acceptance floor\n", tps/perTupleRate)
			}
		}
		fmt.Fprintf(os.Stderr, "%-22s net/batch=%-4d workers=%d %8d tuples  %12.0f tuples/s  %d results%s\n",
			"net-sparse-x3", batch, workers, n, tps, j.Results(), note)
	}
	return out
}

// pick filters datasets to the given keys (Fig. 8–10 use x2 and x3, as the
// paper does), falling back to whatever was prepared.
func pick(dss []*exp.Dataset, keys ...string) []*exp.Dataset {
	byKey := map[string]bool{}
	for _, k := range keys {
		byKey[k] = true
	}
	var out []*exp.Dataset
	for _, ds := range dss {
		switch {
		case byKey[exp.KeyX2] && strings.Contains(ds.Name, "real"):
			out = append(out, ds)
		case byKey[exp.KeyX3] && strings.Contains(ds.Name, "x3"):
			out = append(out, ds)
		case byKey[exp.KeyX4] && strings.Contains(ds.Name, "x4"):
			out = append(out, ds)
		}
	}
	if len(out) == 0 {
		return dss
	}
	return out
}
