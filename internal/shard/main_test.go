package shard

import (
	"os"
	"testing"

	"repro/internal/join"
)

// TestMain runs the package's tests with join.PoisonDelivered on: a path
// that keeps a borrowed result past its callback reads join.Poisoned, and
// the differential it runs under fails.
func TestMain(m *testing.M) {
	join.PoisonDelivered(true)
	os.Exit(m.Run())
}
