package net_test

// The networked runtime's row family of the differential table
// (internal/difftest/table), under the test ID it was first written as.

import (
	"testing"

	"repro/internal/difftest/table"
)

func TestNetworkedMatchesSingleOperator(t *testing.T) { table.Run(t) }
