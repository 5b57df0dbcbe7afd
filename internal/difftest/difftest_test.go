package difftest_test

// TestDifferential runs the rows of the differential table
// (internal/difftest/table) that no older test ID carries: every shape the
// planner emits at a K covering the feed's disorder against difftest.Flat,
// the auto-planned star, and the sharded pipeline against the
// single-threaded one under every policy. The table's header states the
// contract the rows hold: bit for bit at a K covering the disorder,
// difftest.Within below it. CI runs it under -race.

import (
	"testing"

	"repro/internal/difftest/table"
)

func TestDifferential(t *testing.T) { table.Run(t) }
