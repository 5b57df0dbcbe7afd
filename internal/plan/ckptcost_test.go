package plan

import (
	"repro/internal/leakcheck"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/stream"
)

// TestCheckpointCaptureCost is a diagnostic, not a regression gate: it
// prints how long one Checkpoint capture takes on a warmed sharded
// executor, the quantity DESIGN §10's capture fraction is built from
// (bench/ reports it per run as plan.sup_checkpoint_ms on x3-shard2-sup).
// Run with -v to see the numbers.
func TestCheckpointCaptureCost(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("diagnostic")
	}
	in := gen.SparseEqui3(90000, 42, 500, [3]stream.Time{150, 150, 2500})
	w := []stream.Time{2 * stream.Second, 2 * stream.Second, 2 * stream.Second}
	for _, spec := range []string{"shard:2", "tree-shard:2"} {
		g, err := ParseSpec(spec, join.EquiChain(3, 0), w, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ExecConfig{Adapt: adapt.Config{Gamma: 0.95, P: 30 * stream.Second, L: stream.Second}}
		ex := Build(g, cfg)
		for _, e := range in[:len(in)/2] {
			ex.Push(e)
		}
		best := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := Checkpoint(g, cfg, ex); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		ex.Finish()
		t.Logf("%s: capture %v (x9 captures over a ~250ms run = %.1f%%)",
			spec, best, 100*float64(9*best)/float64(250*time.Millisecond))
	}
}
