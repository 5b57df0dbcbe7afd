package dist_test

// The plan tree's rows of the differential table (internal/difftest/table),
// under the test IDs they were first written as.

import (
	"testing"

	"repro/internal/difftest/table"
)

func TestTreeAgreesWithMJoin2Way(t *testing.T)               { table.Run(t) }
func TestTreeAgreesWithMJoin3Way(t *testing.T)               { table.Run(t) }
func TestTreeAgreesWithMJoinUnequalWindows(t *testing.T)     { table.Run(t) }
func TestTreeBandPredicate(t *testing.T)                     { table.Run(t) }
func TestTreePureBandPredicate(t *testing.T)                 { table.Run(t) }
func TestTreeBandChain3Way(t *testing.T)                     { table.Run(t) }
func TestTreeGenericPredicate(t *testing.T)                  { table.Run(t) }
func TestPlanTreeSpineAgreesWithMJoin(t *testing.T)          { table.Run(t) }
func TestPlanTreeBushyAgreesWithMJoin(t *testing.T)          { table.Run(t) }
func TestPlanTreeStageShardedAgreesWithMJoin(t *testing.T)   { table.Run(t) }
func TestPlanTreeBandShardedStage(t *testing.T)              { table.Run(t) }
func TestPlanTreeCheckpointRestoreDifferential(t *testing.T) { table.Run(t) }
func TestPlanTreeCheckpointRestoreBushy(t *testing.T)        { table.Run(t) }
