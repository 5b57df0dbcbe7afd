package shard_test

// The sharded runtime's rows of the differential table
// (internal/difftest/table), under the test IDs they were first written as.

import (
	"testing"

	"repro/internal/difftest/table"
)

func TestShardedMatchesSingleOperator(t *testing.T) { table.Run(t) }
func TestBandHugeKeySaturation(t *testing.T)        { table.Run(t) }
