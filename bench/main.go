// Command bench is the repository's end-to-end benchmark: the paper's whole
// loop (K-slack → synchronizer → MSWJ probe → statistics/profiler →
// Buffer-Size Manager → new K) driven through the public qdhj API on seven
// named workloads, with a separate traced pass that attributes time to the
// layers from outside the program. See README.md.
//
//	bench --workload x3-model --seed 42 --seconds 10 --trace 0   one workload; last stdout line is the result JSON
//	bench -seed 42 -out b.json                                   every workload, both modes, interleaved
//	bench -compare a.json b.json                                 deltas against the bounds; non-zero exit past one
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric. Bound is the share of the baseline's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none. BENCHMARK.json repeats this table for the driver (smoke_test.go
// keeps the two equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"tuples_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_tuple", "us", "lower", 0.25},
	{"push_typical_us", "us", "lower", 0.25},
	{"push_tail_us", "us", "lower", 0.25},
	{"result_lag_ms", "ms", "lower", 0.02},
	{"recall_mean", "ratio", "higher", 0.005},
	{"allocs_per_tuple", "1/tuple", "lower", 0.05},
	{"bytes_per_tuple", "B/tuple", "lower", 0.05},
	{"state_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// value is one reported metric with the per-pass samples it was taken from.
type value struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	N     int       `json:"n"`
	Raw   []float64 `json:"raw,omitempty"`
}

// of reports the median of the samples: for counts, which barely vary, and
// for set-up time.
func of(s samples) value {
	return value{Value: s.median(), Q1: s.quantile(0.25), Q3: s.quantile(0.75), N: len(s), Raw: s}
}

// estimate reports v, an estimate made over all passes together, beside the
// per-pass samples it is steadier than.
func estimate(v float64, s samples) value {
	r := of(s)
	r.Value = v
	return r
}

func exact(v float64) value { return value{Value: v, Q1: v, Q3: v, N: 1} }

// perRepeat maps each timed repeat to one sample.
func perRepeat(ts []timed, f func(timed) float64) samples {
	s := make(samples, len(ts))
	for i, t := range ts {
		s[i] = f(t)
	}
	return s
}

func (r *run) throughput(ts []timed) samples {
	return perRepeat(ts, func(t timed) float64 { return float64(r.tuples) / t.wall.Seconds() })
}

// walls returns the wall time of each repeat in seconds.
func walls(ts []timed) samples {
	return perRepeat(ts, func(t timed) float64 { return t.wall.Seconds() })
}

func (r *run) cpuPerTuple(ts []timed) samples {
	return perRepeat(ts, func(t timed) float64 { return float64(t.cpu) / 1e3 / float64(r.tuples) })
}

// endToEnd assembles the end-to-end metrics of an untraced run. Each timing
// is the undisturbed estimate over the run's passes.
func (r *run) endToEnd() map[string]value {
	wall := undisturbed(len(r.plain), func(i int) *perSegment { return &r.plain[i].segWall })
	cpu := undisturbed(len(r.plain), func(i int) *perSegment { return &r.plain[i].segCPU })
	typical, tail := r.pushMeans(r.pushes)
	return map[string]value{
		"tuples_per_s":     estimate(float64(r.tuples)/wall.Seconds(), r.throughput(r.plain)),
		"cpu_us_per_tuple": estimate(float64(cpu)/1e3/float64(r.tuples), r.cpuPerTuple(r.plain)),
		"push_typical_us":  estimate(typical, r.typical),
		"push_tail_us":     estimate(tail, r.tail),
		"result_lag_ms":    exact(r.ref.lagMs),
		"recall_mean":      exact(r.ref.recallMean),
		"allocs_per_tuple": of(perRepeat(r.plain, func(t timed) float64 { return float64(t.mallocs) / float64(r.tuples) })),
		"bytes_per_tuple":  of(perRepeat(r.plain, func(t timed) float64 { return float64(t.bytes) / float64(r.tuples) })),
		"state_heap_mb":    of(r.stateMB),
		"setup_s":          of(r.setups),
	}
}

// workloadReport is one workload's entry of the -out file.
type workloadReport struct {
	Name       string             `json:"name"`
	Why        string             `json:"why"`
	Tuples     int                `json:"tuples"`
	Results    int64              `json:"results"`
	TruthTotal int64              `json:"truth_total"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Checks     []check            `json:"checks"`
	EndToEnd   map[string]value   `json:"end_to_end,omitempty"`
	PerLayer   map[string]value   `json:"per_layer,omitempty"`
	Spans      map[string]spanAgg `json:"spans,omitempty"`
	Decisions  []decision         `json:"decisions,omitempty"`
	Migrations []map[string]any   `json:"migrations,omitempty"`
}

// withUnits stamps each value with its metric's unit.
func withUnits(defs []metricDef, vals map[string]value) map[string]value {
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			v.Unit = d.Unit
			vals[d.Name] = v
		}
	}
	return vals
}

func (r *run) report(e2e, layers map[string]value) workloadReport {
	rep := workloadReport{
		Name: r.w.name, Why: r.w.why, Tuples: r.tuples, Results: r.ref.results,
		TruthTotal: r.in.truth.Total(), Correct: r.correct(), Attempted: r.attempts, Failed: r.failed,
		Checks: r.checks, EndToEnd: withUnits(endToEnd, e2e), PerLayer: withUnits(perLayer, layers),
	}
	if r.pipe != nil {
		rep.Spans = map[string]spanAgg{}
		for id, a := range r.tracer.agg {
			rep.Spans[spanNames[id]] = a
		}
		rep.Decisions = r.pipe.decisions
	}
	for _, ev := range r.migrations {
		rep.Migrations = append(rep.Migrations, map[string]any{
			"from": ev.From, "to": ev.To, "at": ev.At, "replayed": ev.Replayed, "pause_ms": ev.Pause.Seconds() * 1e3,
		})
	}
	return rep
}

// environment is the -out file's record of where and how it was measured.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Minutes    float64 `json:"minutes"`
	Seconds    float64 `json:"seconds_per_workload"`
	Setups     int     `json:"setups"`
	WallS      float64 `json:"wall_s"`
}

type outFile struct {
	Schema    string           `json:"schema"`
	Env       environment      `json:"env"`
	EndToEnd  []metricDef      `json:"end_to_end"`
	Workloads []workloadReport `json:"workloads"`
}

const schema = "qdhj-bench/1"

// setupRepeats is how often a run repeats its set-up; setup_s is the median.
const setupRepeats = 9

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeOut(path string, f outFile) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printTable(w *os.File, r *run, defs []metricDef, vals map[string]value) {
	fmt.Fprintf(w, "%s  (%d tuples, %d results of %d true)\n", r.w.name, r.tuples, r.ref.results, r.in.truth.Total())
	for _, d := range defs {
		v := vals[d.Name]
		if v.N > 1 {
			fmt.Fprintf(w, "  %-30s %14.6g %-8s [q1 %.6g, q3 %.6g, n=%d]\n", d.Name, v.Value, d.Unit, v.Q1, v.Q3, v.N)
		} else {
			fmt.Fprintf(w, "  %-30s %14.6g %-8s\n", d.Name, v.Value, d.Unit)
		}
	}
	for _, c := range r.checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED: %s: %s\n", c.Name, c.Detail)
		}
	}
}

// contractLine is the one-line result the benchmark driver reads.
func contractLine(r *run, defs []metricDef, vals map[string]value) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, d := range defs {
		ms[d.Name] = mv{vals[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": max(r.attempts, 1), "failed": r.failed, "metrics": ms,
	})
	if err != nil {
		panic(err)
	}
	return string(b)
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the driver's result line (default: all workloads, interleaved)")
		seed    = flag.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measuring time per workload and mode")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		minutes = flag.Float64("minutes", 10, "logical horizon of the P = 1 min workloads; the others scale with it")
		out     = flag.String("out", "", "write the full report (environment, raw samples, spans, checks) to this file")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	start := time.Now()
	// One producer goroutine; the second P is for the GC and the two shard
	// workers of x3-shard2-sup.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	file := outFile{Schema: schema, EndToEnd: endToEnd, Env: environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: *seed, Minutes: *minutes, Seconds: *seconds, Setups: setupRepeats,
	}}
	budget := time.Duration(*seconds * float64(time.Second))
	ok := true

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		r := newRun(w, *seed, *minutes, setupRepeats)
		var line string
		if *trace == 0 {
			r.twinChecks()
			for t0 := time.Now(); time.Since(t0) < budget || len(r.plain) < 3 || len(r.p99) < 1; {
				r.step()
			}
			r.endChecks()
			vals := r.endToEnd()
			printTable(os.Stderr, r, endToEnd, vals)
			file.Workloads = append(file.Workloads, r.report(vals, nil))
			line = contractLine(r, endToEnd, vals)
		} else {
			for t0 := time.Now(); time.Since(t0) < budget || len(r.plain) < 3; {
				r.traceStep()
			}
			r.latencyPass()
			r.endChecks()
			vals := r.perLayer()
			printTable(os.Stderr, r, perLayer, vals)
			file.Workloads = append(file.Workloads, r.report(nil, vals))
			line = contractLine(r, perLayer, vals)
		}
		ok = r.correct()
		fmt.Println(line)
	} else {
		// Repeats of all workloads interleave round-robin, so machine drift
		// hits all alike.
		runs := make([]*run, len(workloads))
		for i := range workloads {
			runs[i] = newRun(&workloads[i], *seed, *minutes, setupRepeats)
			runs[i].twinChecks()
		}
		spent := make([]time.Duration, len(runs))
		for busy := true; busy; {
			busy = false
			for i, r := range runs {
				if spent[i] < budget || len(r.plain) < 3 || len(r.p99) < 1 {
					t0 := time.Now()
					r.step()
					spent[i] += time.Since(t0)
					busy = true
				}
			}
		}
		for _, r := range runs {
			e2e := r.endToEnd()
			nPlain := len(r.plain)
			for t0 := time.Now(); time.Since(t0) < budget/2 || len(r.plain) < nPlain+3; {
				r.traceStep()
			}
			r.endChecks()
			layers := r.perLayer()
			printTable(os.Stdout, r, endToEnd, e2e)
			printTable(os.Stdout, r, perLayer, layers)
			file.Workloads = append(file.Workloads, r.report(e2e, layers))
			ok = ok && r.correct()
		}
	}

	if *out != "" {
		file.Env.Commit = gitCommit()
		file.Env.WallS = time.Since(start).Seconds()
		if err := writeOut(*out, file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}
