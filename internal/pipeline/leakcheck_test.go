package pipeline

import (
	"runtime"
	"testing"
	"time"

	"logsynergy/internal/tensor"
)

// leakCheck snapshots the goroutine count and registers a cleanup that
// fails the test if the count has not settled back to the baseline. The
// resident tensor worker pool is pre-spawned first so its goroutines are
// part of the baseline rather than a false leak; transient goroutines
// (timed-out fault.WithTimeout calls still draining) get a grace period
// to exit before the check fails. On the Run tests it also proves Run
// leaves no goroutine of its own behind.
func leakCheck(t *testing.T) {
	t.Helper()
	// Pin the pool at its current effective size so lazily started
	// workers do not count as leaks.
	tensor.SetParallelism(tensor.Parallelism())
	runtime.Gosched()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d at start, %d after grace period\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	})
}
