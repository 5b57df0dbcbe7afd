package plan_test

// The executor's rows of the differential table (internal/difftest/table),
// under the test IDs they were first written as.

import (
	"testing"

	"repro/internal/difftest/table"
)

func TestRemoteAdaptiveDifferential(t *testing.T)     { table.Run(t) }
func TestRemoteSupervisedWorkerKill(t *testing.T)     { table.Run(t) }
func TestSupervisedRecoveryDifferential(t *testing.T) { table.Run(t) }
