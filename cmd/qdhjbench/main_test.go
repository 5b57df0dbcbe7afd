package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
)

// TestBenchJSONSmoke runs the whole -benchjson report at a tiny horizon and
// pins its contract: the file parses, the schema is v5, every mode is
// present (and the removed mode "batch" is not), and the sweeps whose
// configurations must be result-equivalent — operator shards and net frame
// batch — report equal result counts.
func TestBenchJSONSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchjson mode end to end (≈10 s)")
	}
	const minutes, seed = 0.1, 42
	var dss []*exp.Dataset
	for _, k := range []string{exp.KeyX2, exp.KeyX3, exp.KeyX4} {
		dss = append(dss, exp.Prepare(k, minutes, seed))
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := runBenchJSON(path, minutes, seed, []int{1, 2}, dss); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Schema != "qdhj-operator-throughput/5" {
		t.Errorf("schema %q, want qdhj-operator-throughput/5", rep.Schema)
	}

	perMode := map[string]int{}
	operator := map[string]int64{} // dataset → results, equal across shards
	var net []int64
	for _, e := range rep.Entries {
		perMode[e.Mode]++
		switch e.Mode {
		case "operator":
			if want, seen := operator[e.Dataset]; seen && e.Results != want {
				t.Errorf("operator %s shards=%d: %d results, other shard counts produced %d",
					e.Dataset, e.Shards, e.Results, want)
			}
			operator[e.Dataset] = e.Results
		case "net":
			net = append(net, e.Results)
		}
	}
	for _, mode := range []string{"operator", "tree", "plan", "fault", "replan", "multi", "net"} {
		if perMode[mode] == 0 {
			t.Errorf("no mode %q entries", mode)
		}
	}
	if perMode["batch"] != 0 {
		t.Errorf("%d mode \"batch\" entries; the mode was removed in schema v5", perMode["batch"])
	}
	for i := 1; i < len(net); i++ {
		if net[i] != net[0] {
			t.Errorf("net frame-batch sweep: entry %d produced %d results, entry 0 produced %d", i, net[i], net[0])
		}
	}
}
