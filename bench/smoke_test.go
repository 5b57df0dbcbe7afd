package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesTables keeps the driver's copy of the workload and
// metric tables equal to the ones the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	// The driver gates a subset of the workloads (README.md, "Which workloads the driver gates").
	for _, bw := range bj.Workloads {
		if w := findWorkload(bw.Name); w == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not have", bw.Name)
		} else if bw.Why != w.why {
			t.Errorf("workload %s: BENCHMARK.json has %q, the program %q", bw.Name, bw.Why, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestSmoke takes every workload through every kind of pass at a one-minute
// horizon: all built-in output checks must hold, every metric BENCHMARK.json
// names must come out finite under a well-formed name, and -compare of the
// report with itself must pass.
func TestSmoke(t *testing.T) {
	start := time.Now()
	bj := readBenchmarkJSON(t)
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	file := outFile{Schema: schema, EndToEnd: endToEnd}
	for i := range workloads {
		w := &workloads[i]
		r := newRun(w, 42, 1, 1)
		r.twinChecks()
		r.step() // timed repeat
		r.step() // latency pass
		e2e := r.endToEnd()
		r.traceStep()
		r.endChecks()
		layers := r.perLayer()
		for _, c := range r.checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", w.name, c.Name, c.Detail)
			}
		}
		if r.failed != 0 || r.attempts < 1 {
			t.Errorf("%s: %d failed of %d attempted", w.name, r.failed, r.attempts)
		}
		if w.name == "flip4-replan" && len(r.migrations) == 0 {
			t.Errorf("%s: no migration", w.name)
		}
		finiteNamed := func(defs []metricDef, vals map[string]value) {
			for _, d := range defs {
				v, ok := vals[d.Name]
				switch {
				case !nameOK.MatchString(d.Name):
					t.Errorf("metric name %q is malformed", d.Name)
				case !ok:
					t.Errorf("%s: metric %s missing from the output", w.name, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, d.Name, v.Value)
				}
			}
		}
		finiteNamed(bj.EndToEnd, e2e)
		finiteNamed(bj.PerLayer, layers)
		if r.in.flat() && layers["join.share"].Value <= 0 {
			t.Errorf("%s: the traced pass attributed no time", w.name)
		}
		file.Workloads = append(file.Workloads, r.report(e2e, layers))
	}

	path := filepath.Join(t.TempDir(), "self.json")
	if err := writeOut(path, file); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(io.Discard, path, path); code != 0 {
		t.Errorf("-compare of a report with itself exits %d", code)
	}
	// ≈ 8 s here; not asserted, since a slow machine or -race is no defect.
	t.Logf("smoke took %v", time.Since(start))
}

// TestCompareFlagsRegression checks the exit codes of -compare.
func TestCompareFlagsRegression(t *testing.T) {
	mk := func(tps ...float64) *outFile {
		return &outFile{Schema: schema, EndToEnd: endToEnd, Workloads: []workloadReport{{
			Name: "w", Correct: true, EndToEnd: map[string]value{"tuples_per_s": of(tps)},
		}}}
	}
	base := mk(100, 101, 102)
	if code := compare(io.Discard, base, mk(99, 100, 101)); code != 0 {
		t.Errorf("a 1%% slowdown exits %d", code)
	}
	if code := compare(io.Discard, base, mk(49, 50, 51)); code != 1 {
		t.Errorf("a 50%% slowdown exits %d", code)
	}
	bad := mk(100, 101, 102)
	bad.Workloads[0].Correct = false
	if code := compare(io.Discard, base, bad); code != 1 {
		t.Errorf("failed output checks exit %d", code)
	}
}
