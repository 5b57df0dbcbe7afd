package plan

// Remote deployment at the executor seam: what ExecConfig.Remote refuses
// at construction. The networked differentials — the flat plans on
// loopback worker daemons, healthy and with a worker killed mid-stream —
// are rows of the differential table (internal/difftest/table).

import (
	"testing"

	"repro/internal/join"
	"repro/internal/stream"
)

// TestRemoteConfigValidation pins the construction-time contract: remote
// deployment refuses tree shapes, a worker count that disagrees with the
// shard count, and conditions that cannot cross a process boundary.
func TestRemoteConfigValidation(t *testing.T) {
	w := []stream.Time{700, 700, 700}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("tree shape", func() {
		g, _ := ParseSpec("tree", join.EquiChain(3, 0), w, 2)
		Build(g, ExecConfig{Adapt: supAdapt, Remote: []string{"a:1", "b:2"}})
	})
	mustPanic("shard/worker mismatch", func() {
		Build(ShardedFlat(join.EquiChain(3, 0), w, 4),
			ExecConfig{Adapt: supAdapt, Remote: []string{"a:1", "b:2"}})
	})
	mustPanic("non-wireable condition", func() {
		cond := join.EquiChain(3, 0).Where([]int{0, 2}, func(a []*stream.Tuple) bool {
			return a[0].Attr(1) <= a[2].Attr(1)
		})
		Build(ShardedFlat(cond, w, 2),
			ExecConfig{Adapt: supAdapt, Remote: []string{"a:1", "b:2"}})
	})
}
