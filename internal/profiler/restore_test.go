package profiler_test

import (
	"fmt"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/difftest/table"
	"repro/internal/feedback"
	"repro/internal/profiler"
)

// TestRestoreRoundTripEveryCut: each scope's profiler state, restored into
// a fresh profiler, captures to the same gob bytes, at every adaptation
// boundary and mid-interval, with and without the delay history.
func TestRestoreRoundTripEveryCut(t *testing.T) {
	table.EachCut(t, func(t *testing.T, _ bool, st feedback.State, _ func() *core.Pipeline) {
		for i, ps := range st.Profilers {
			difftest.RestoreRoundTrip(t, fmt.Sprintf("scope %d", i), ps, func(st profiler.State) profiler.State {
				p := profiler.New(adapt.DefaultG)
				p.Restore(st)
				return p.State()
			})
		}
	})
}
