// Package leakcheck fails tests that leak goroutines. Every executor in
// this codebase that starts goroutines (the shard runtime, plan-tree stage
// workers, the async stats feeder) owns their lifetime: Finish/Close/Abandon
// must leave none behind — including after contained worker failures, where
// drain-mode workers still have to exit when their channels close. Tests
// register Check(t) before starting any concurrent join.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Check snapshots the goroutine count and registers a cleanup that fails
// the test if, after a grace period, more goroutines are running than
// before the test body. The grace period absorbs goroutines that are
// mid-exit (worker loops between their last message and returning).
func Check(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("leakcheck: %d goroutines before the test, %d after; stacks:\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	})
}
