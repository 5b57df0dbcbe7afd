// Multi-query execution for qdhjrun: -queries <spec-file> registers every
// query in the file against one shared-window MultiJoin, replays the feed
// once, and reports per-query result counts and recall. With -explain the
// run is skipped and the sharing structure (shared ingest lanes, probe
// classes with their shared equi/band prefixes, residual fan-out) is
// printed instead.
//
// Spec format: one query per line; blank lines and #-comments are skipped.
// The first token is a query key (the same keys -query takes: x2|x3|x4|
// cross|equichain); the rest are optional key=value overrides:
//
//	x3
//	x3 policy=nok
//	x3 policy=static k=1.5
//	equichain gamma=0.9
//	x4 policy=maxk
//
// Per-query policy/gamma/k default to the run-level -policy/-gamma/-k
// flags; P, L and the selectivity strategy are shared by all queries.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	qdhj "repro"
	"repro/internal/adapt"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/stream"
)

// querySpec is one parsed line of a -queries file.
type querySpec struct {
	line    int
	query   string
	policy  string
	gamma   float64
	staticK float64 // seconds
}

// parseQuerySpecs reads a -queries file, applying run-level defaults to
// fields a line does not override.
func parseQuerySpecs(path, defPolicy string, defGamma, defK float64) ([]querySpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var specs []querySpec
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		s := querySpec{line: ln, query: fields[0], policy: defPolicy, gamma: defGamma, staticK: defK}
		for _, kv := range fields[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("%s:%d: expected key=value, got %q", path, ln, kv)
			}
			switch k {
			case "policy":
				s.policy = v
			case "gamma":
				if s.gamma, err = strconv.ParseFloat(v, 64); err != nil {
					return nil, fmt.Errorf("%s:%d: bad gamma %q", path, ln, v)
				}
			case "k":
				if s.staticK, err = strconv.ParseFloat(v, 64); err != nil {
					return nil, fmt.Errorf("%s:%d: bad k %q", path, ln, v)
				}
			default:
				return nil, fmt.Errorf("%s:%d: unknown key %q (want policy|gamma|k)", path, ln, k)
			}
		}
		switch s.policy {
		case "model", "maxk", "nok", "static":
		default:
			return nil, fmt.Errorf("%s:%d: unknown policy %q", path, ln, s.policy)
		}
		specs = append(specs, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("%s: no queries", path)
	}
	return specs, nil
}

// runMulti executes (or, with explainOnly, just plans) every query of a
// -queries file against one shared-window MultiJoin.
func runMulti(in, specPath string, acfg adapt.Config, defPolicy string, defGamma, defK float64, explainOnly bool) {
	specs, err := parseQuerySpecs(specPath, defPolicy, defGamma, defK)
	if err != nil {
		fatal(err)
	}

	var ds *gen.Dataset
	m := 0
	var windows []stream.Time
	if in != "" {
		ds = readDataset(in)
		m, windows = ds.M, ds.Windows
	} else if explainOnly {
		// No feed needed to show the sharing structure, but the queries
		// must pin the arity themselves.
		for _, s := range specs {
			qm, w := explainStreams(s.query)
			if m != 0 && qm != m {
				fatal(fmt.Errorf("mixed query arities %d and %d in %s", m, qm, specPath))
			}
			m, windows = qm, w
		}
	} else {
		flag.Usage()
		os.Exit(2)
	}

	mj := qdhj.NewMultiJoin(m)
	mqs := make([]*qdhj.MultiQuery, len(specs))
	for i, s := range specs {
		mqs[i] = mj.Add(queryFor(s.query, m), windows, options(acfg, s.gamma, s.policy, s.staticK))
	}
	if explainOnly {
		fmt.Print(mj.Explain())
		return
	}

	// Oracle ground truth once per distinct condition, not once per query.
	truthFor := map[string]int64{}
	for _, s := range specs {
		if _, ok := truthFor[s.query]; !ok {
			fmt.Fprintf(os.Stderr, "computing oracle ground truth for %s...\n", s.query)
			truthFor[s.query] = oracle.TrueResults(queryFor(s.query, m), windows, ds.Arrivals).Total()
		}
	}

	for _, e := range ds.Arrivals.Clone() {
		mj.Push(e)
	}
	mj.Close()

	fmt.Printf("dataset:        %s (%d tuples, %d streams)\n", ds.Name, len(ds.Arrivals), m)
	fmt.Printf("queries:        %d over %d shared lanes\n", len(specs), len(mj.SharingInfo()))
	for i, s := range specs {
		mq := mqs[i]
		recall := 0.0
		if t := truthFor[s.query]; t > 0 {
			recall = float64(mq.Results()) / float64(t)
		}
		fmt.Printf("  q%-3d %-10s %-7s produced %9d of %9d (recall %.4f)  avgK %.3f s  adapt %d\n",
			i, s.query, s.policy, mq.Results(), truthFor[s.query], recall,
			mq.AvgK()/1000, mq.Adaptations())
	}
	fmt.Fprint(os.Stderr, mj.Explain())
}
