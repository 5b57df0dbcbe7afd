package qdhj_test

// The public API's rows of the differential table
// (internal/difftest/table), under the test IDs they were first written as.

import (
	"testing"

	"repro/internal/difftest/table"
)

func TestWithShardsMatchesSingleThreaded(t *testing.T) { table.Run(t) }
func TestJoinWithPlanDifferential(t *testing.T)        { table.Run(t) }
func TestTreeJoinAgreesWithJoin(t *testing.T)          { table.Run(t) }
func TestWithRemoteWorkersDifferential(t *testing.T)   { table.Run(t) }
func TestJoinCheckpointRoundTrip(t *testing.T)         { table.Run(t) }
func TestJoinSupervisedRecovery(t *testing.T)          { table.Run(t) }
func TestWithRemoteWorkersSupervisedKill(t *testing.T) { table.Run(t) }
