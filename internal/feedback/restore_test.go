package feedback_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/difftest/table"
	"repro/internal/feedback"
)

// TestRestoreRoundTripEveryCut: a loop's state, restored into the loop of
// a fresh pipeline, captures to the same gob bytes, at every adaptation
// boundary and mid-interval, with and without the delay history.
func TestRestoreRoundTripEveryCut(t *testing.T) {
	table.EachCut(t, func(t *testing.T, _ bool, st feedback.State, fresh func() *core.Pipeline) {
		difftest.RestoreRoundTrip(t, "loop", st, func(st feedback.State) feedback.State {
			l := fresh().Loop()
			l.Restore(st)
			return l.State()
		})
	})
}
