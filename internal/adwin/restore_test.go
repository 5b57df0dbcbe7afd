package adwin_test

import (
	"fmt"
	"testing"

	"repro/internal/adwin"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/difftest/table"
	"repro/internal/feedback"
)

// TestRestoreRoundTripEveryCut: each stream's ADWIN state, restored into a
// fresh window, captures to the same gob bytes, at every adaptation
// boundary and mid-interval. A loop without the delay history keeps no
// ADWIN.
func TestRestoreRoundTripEveryCut(t *testing.T) {
	table.EachCut(t, func(t *testing.T, history bool, st feedback.State, _ func() *core.Pipeline) {
		for i, ss := range st.Stats.Streams {
			if (ss.Adwin != nil) != history {
				t.Fatalf("stream %d keeps an ADWIN: %v, want %v", i, ss.Adwin != nil, history)
			}
			if ss.Adwin != nil {
				difftest.RestoreRoundTrip(t, fmt.Sprintf("stream %d", i), *ss.Adwin, func(st adwin.State) adwin.State {
					w := adwin.New(0.002)
					w.Restore(st)
					return w.State()
				})
			}
		}
	})
}
