package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readOut(path string) (*outFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return &f, nil
}

// worse returns by what share of a's median b is worse than a (negative
// when b is better).
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	delta := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		return -delta
	}
	return delta
}

// allBetter reports whether every sample of b reads better than every
// sample of a.
func allBetter(d metricDef, a, b value) bool {
	if len(a.Raw) == 0 || len(b.Raw) == 0 {
		return false
	}
	for _, x := range a.Raw {
		for _, y := range b.Raw {
			if worse(d, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, per workload and end-to-end metric, both reported
// values with the quartiles of their samples, the change and the bound, and
// returns the exit
// code: 1 when b is worse than a by more than a bound. A metric whose
// run-to-run spread (either side's interquartile distance over its median)
// exceeds the bound is unresolved, not unchanged — unless every sample of b
// reads better than every sample of a.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readOut(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	b, err := readOut(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	return compare(w, a, b)
}

func compare(w io.Writer, a, b *outFile) int {
	code := 0
	byName := map[string]workloadReport{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", wa.Name)
		for _, d := range a.EndToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			by := worse(d, va.Value, vb.Value)
			spread := 0.0
			for _, v := range []value{va, vb} {
				if v.Value != 0 {
					spread = max(spread, (v.Q3-v.Q1)/math.Abs(v.Value))
				}
			}
			verdict := "ok"
			switch {
			case by > d.Bound:
				verdict = "REGRESSION"
				code = 1
			case spread > d.Bound && !allBetter(d, va, vb):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "  %-18s %-7s %12.6g [%.6g, %.6g]  →  %12.6g [%.6g, %.6g]  %+7.2f%% worse, bound %.1f%%  %s\n",
				d.Name, d.Unit, va.Value, va.Q1, va.Q3, vb.Value, vb.Q1, vb.Q3, 100*by, 100*d.Bound, verdict)
		}
		if wa.Results != wb.Results && a.Env.Seed == b.Env.Seed && a.Env.Minutes == b.Env.Minutes {
			fmt.Fprintf(w, "  result count differs at equal seed and horizon: %d → %d\n", wa.Results, wb.Results)
		}
		if !wb.Correct {
			fmt.Fprintf(w, "  output checks failed in b\n")
			code = 1
		}
	}
	return code
}
