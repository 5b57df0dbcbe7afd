package core_test

// The pipeline's restore rows of the differential table
// (internal/difftest/table), under the test ID they were first written as.

import (
	"testing"

	"repro/internal/difftest/table"
)

func TestCheckpointRestoreDifferential(t *testing.T) { table.Run(t) }
