package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"repro/internal/leakcheck"
	"testing"

	"math/rand"

	"repro/internal/adapt"
	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/stream"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden feedback-loop trace")

// goldenRun is the recorded behaviour of one pipeline configuration: the full
// K trajectory with the Γ′ used at each step (stored as raw float bits so the
// comparison is bit-for-bit, not within-epsilon), the produced result count,
// and two hashes over the emitted results — one in emit order, one
// order-insensitive over the multiset. The feedback-loop extraction must
// reproduce all of them exactly.
type goldenRun struct {
	Name        string   `json:"name"`
	Ks          []int64  `json:"ks"`
	GammaPrimes []uint64 `json:"gamma_primes"`
	Results     int64    `json:"results"`
	OrderedHash uint64   `json:"ordered_hash"`
	SetHash     uint64   `json:"set_hash"`
	AvgKBits    uint64   `json:"avg_k_bits"`
}

// goldenWorkload is a seeded disordered 3-stream feed with sparse keys, so
// result enumeration stays cheap while the delay distribution still forces
// non-trivial K decisions.
func goldenWorkload() (stream.Batch, *join.Condition, []stream.Time) {
	rng := rand.New(rand.NewSource(11))
	var in stream.Batch
	var seq uint64
	ts := stream.Time(3000)
	for i := 0; i < 6000; i++ {
		ts += 10
		for src := 0; src < 3; src++ {
			t := ts
			if rng.Intn(4) == 0 {
				t -= stream.Time(rng.Intn(3000))
			}
			in = append(in, &stream.Tuple{
				TS: t, Seq: seq, Src: src,
				Attrs: []float64{float64(rng.Intn(300))},
			})
			seq++
		}
	}
	w := 2 * stream.Second
	return in, join.EquiChain(3, 0), []stream.Time{w, w, w}
}

// goldenConfigs enumerates the traced configurations: both selectivity
// strategies, both search algorithms, a baseline policy, and the sharded
// path (which exercises the asynchronous stats feeder and interval-batched
// result replay).
func goldenConfigs() []struct {
	name   string
	cfg    func(emit func(stream.Result)) Config
	inputs stream.Batch
} {
	arrivals, cond, windows := goldenWorkload()
	x3 := struct {
		Arrivals stream.Batch
		Cond     *join.Condition
		Windows  []stream.Time
	}{arrivals, cond, windows}
	acfg := adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second}
	type entry = struct {
		name   string
		cfg    func(emit func(stream.Result)) Config
		inputs stream.Batch
	}
	return []entry{
		{"x3-model-noneqsel", func(emit func(stream.Result)) Config {
			return Config{Windows: x3.Windows, Cond: x3.Cond, Adapt: acfg, Emit: emit}
		}, x3.Arrivals},
		{"x3-model-eqsel", func(emit func(stream.Result)) Config {
			a := acfg
			a.Strategy = adapt.EqSel
			return Config{Windows: x3.Windows, Cond: x3.Cond, Adapt: a, Emit: emit}
		}, x3.Arrivals},
		{"x3-maxk", func(emit func(stream.Result)) Config {
			return Config{Windows: x3.Windows, Cond: x3.Cond, Adapt: acfg, Policy: MaxKPolicy(), Emit: emit}
		}, x3.Arrivals},
		{"x3-model-sharded", func(emit func(stream.Result)) Config {
			return Config{Windows: x3.Windows, Cond: x3.Cond, Adapt: acfg, Emit: emit,
				Sharding: Sharding{Shards: 4}}
		}, x3.Arrivals},
	}
}

func traceRun(t *testing.T, name string, mk func(emit func(stream.Result)) Config, inputs stream.Batch) goldenRun {
	t.Helper()
	g := goldenRun{Name: name}
	h := difftest.NewHash()
	cfg := mk(h.Emit)
	cfg.OnAdapt = func(ev AdaptEvent) {
		g.Ks = append(g.Ks, int64(ev.NewK))
		g.GammaPrimes = append(g.GammaPrimes, math.Float64bits(ev.GammaPrime))
	}
	p := New(cfg)
	p.Run(inputs.Clone())
	g.Results = p.Results()
	g.OrderedHash, g.SetHash = h.Ordered(), h.Set
	g.AvgKBits = math.Float64bits(p.AvgK())
	return g
}

// TestGoldenFeedbackTrace asserts that the pipeline's K trajectories, Γ′
// sequence and result multisets are bit-for-bit identical to the trace
// recorded before the feedback loop was extracted into internal/feedback
// (regenerate with `go test -run TestGoldenFeedbackTrace -update`).
func TestGoldenFeedbackTrace(t *testing.T) {
	leakcheck.Check(t)
	path := filepath.Join("testdata", "golden_trace.json")
	var got []goldenRun
	for _, c := range goldenConfigs() {
		got = append(got, traceRun(t, c.name, c.cfg, c.inputs))
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d runs", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update to create): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden trace has %d runs, current code produced %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Name != g.Name {
			t.Fatalf("run %d: name %q != golden %q", i, g.Name, w.Name)
		}
		if fmt.Sprint(w.Ks) != fmt.Sprint(g.Ks) {
			t.Errorf("%s: K trajectory diverged\n golden: %v\n got:    %v", w.Name, w.Ks, g.Ks)
		}
		if fmt.Sprint(w.GammaPrimes) != fmt.Sprint(g.GammaPrimes) {
			t.Errorf("%s: Γ′ sequence diverged", w.Name)
		}
		if w.Results != g.Results {
			t.Errorf("%s: results %d != golden %d", w.Name, g.Results, w.Results)
		}
		if w.SetHash != g.SetHash {
			t.Errorf("%s: result multiset hash diverged", w.Name)
		}
		if w.OrderedHash != g.OrderedHash {
			t.Errorf("%s: result emit-order hash diverged", w.Name)
		}
		if w.AvgKBits != g.AvgKBits {
			t.Errorf("%s: AvgK diverged: %g != golden %g", w.Name,
				math.Float64frombits(g.AvgKBits), math.Float64frombits(w.AvgKBits))
		}
	}
}
