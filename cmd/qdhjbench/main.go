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
// Invalid flag values exit with code 2 and an error wrapping errBadFlag,
// before any dataset is prepared; see parseFlags.
//
// qdhjbench measures nothing but the paper's figures. Throughput, latency
// and per-layer cost are bench/'s job (bash bench/run.sh, BENCHMARK.json).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiment is one -exp name. only lists the dataset keys the paper ran it
// on (Fig. 8–10 use x2 and x3); nil means every prepared dataset.
type experiment struct {
	name string
	only []string
	run  func(io.Writer, []*exp.Dataset)
}

// x2x3 is the dataset pair the paper varies P, L and g on.
var x2x3 = []string{exp.KeyX2, exp.KeyX3}

// experiments is the -exp dispatch table, in the order `-exp all` runs it.
var experiments = []experiment{
	{"fig6", nil, func(w io.Writer, d []*exp.Dataset) { exp.Fig6(w, d) }},
	{"table2", nil, func(w io.Writer, d []*exp.Dataset) { exp.Table2(w, d) }},
	{"fig7", nil, func(w io.Writer, d []*exp.Dataset) { exp.Fig7(w, d) }},
	{"fig8", x2x3, func(w io.Writer, d []*exp.Dataset) { exp.Fig8(w, d) }},
	{"fig9", x2x3, func(w io.Writer, d []*exp.Dataset) { exp.Fig9(w, d) }},
	{"fig10", x2x3, func(w io.Writer, d []*exp.Dataset) { exp.Fig10(w, d) }},
	{"fig11", nil, func(w io.Writer, d []*exp.Dataset) { exp.Fig11(w, d) }},
	{"ablations", nil, func(w io.Writer, d []*exp.Dataset) { exp.Ablations(w, d) }},
}

// expNames renders the accepted -exp values, "fig6|…|ablations|all".
func expNames() string {
	var b strings.Builder
	for _, e := range experiments {
		b.WriteString(e.name + "|")
	}
	return b.String() + "all"
}

// errBadFlag is the typed error behind every rejected flag value: qdhjbench
// prints an error chain that errors.Is(err, errBadFlag) recognizes, a usage
// line, and exits with code 2.
var errBadFlag = errors.New("invalid flag")

func badFlag(format string, a ...any) error {
	return fmt.Errorf("qdhjbench: %w: %s", errBadFlag, fmt.Sprintf(format, a...))
}

// parseFlags validates -exp, -datasets and -minutes and resolves them to
// the experiments to run and the dataset keys to prepare. Everything is
// checked here, before any preparation: a typo must not cost the minutes of
// generator and oracle work a long horizon takes, and a non-positive
// horizon must not silently fall back to the generators' default while the
// tables claim to be for what the user typed.
func parseFlags(expName, datasets string, minutes float64) ([]experiment, []string, error) {
	// Negated comparison so NaN fails the range.
	if !(minutes > 0) {
		return nil, nil, badFlag("-minutes %g: the stream horizon must be positive", minutes)
	}
	var keys []string
	for _, k := range strings.Split(datasets, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if !slices.Contains(exp.AllKeys(), k) {
			return nil, nil, badFlag("-datasets: unknown dataset key %q (have %s)", k, strings.Join(exp.AllKeys(), ", "))
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return nil, nil, badFlag("-datasets %q names no dataset (have %s)", datasets, strings.Join(exp.AllKeys(), ", "))
	}
	if expName == "all" {
		return experiments, keys, nil
	}
	for _, e := range experiments {
		if e.name == expName {
			return []experiment{e}, keys, nil
		}
	}
	return nil, nil, badFlag("-exp: unknown experiment %q (have %s)", expName, expNames())
}

// prepared is a dataset with the key it was prepared from.
type prepared struct {
	key string
	ds  *exp.Dataset
}

// pick filters the prepared datasets to the given keys, falling back to
// whatever was prepared when none of them was (or when keys is nil).
func pick(dss []prepared, keys []string) []*exp.Dataset {
	var out, all []*exp.Dataset
	for _, p := range dss {
		all = append(all, p.ds)
		if slices.Contains(keys, p.key) {
			out = append(out, p.ds)
		}
	}
	if len(out) == 0 {
		return all
	}
	return out
}

// run is main without the process: it parses args, prints the tables to
// stdout and progress to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qdhjbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expName  = fs.String("exp", "all", "experiment: "+expNames())
		minutes  = fs.Float64("minutes", 5, "simulated stream horizon per dataset (paper: 23-30)")
		seed     = fs.Int64("seed", 42, "generator seed")
		datasets = fs.String("datasets", "x2,x3,x4", "comma-separated dataset keys")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	exps, keys, err := parseFlags(*expName, *datasets, *minutes)
	if err != nil {
		fmt.Fprintln(stderr, err)
		fmt.Fprintf(stderr, "usage: qdhjbench [-exp %s] [-minutes M] [-seed S] [-datasets %s]\n",
			expNames(), strings.Join(exp.AllKeys(), ","))
		return 2
	}

	start := time.Now()
	var dss []prepared
	for _, k := range keys {
		fmt.Fprintf(stderr, "preparing %s (%.1f min, seed %d)...\n", k, *minutes, *seed)
		dss = append(dss, prepared{k, exp.Prepare(k, *minutes, *seed)})
	}
	fmt.Fprintf(stderr, "datasets ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	for _, e := range exps {
		e.run(stdout, pick(dss, e.only))
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stderr, "total wall time %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}
