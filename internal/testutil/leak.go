// Package testutil holds helpers shared across the repo's test suites.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// VerifyNoLeaks records the current goroutine count and registers a
// cleanup that fails the test if the count has not returned to within
// slack of the baseline by the deadline. Call it before starting the
// machinery under test, so the registered cleanup runs after the test's
// own teardown (t.Cleanup is LIFO) and every source thread, executor,
// session and egress writer has had its stop signal.
//
// A small slack absorbs runtime and test-harness helper goroutines; the
// leaks this guards against are the dozens of engine goroutines a missed
// stop signal strands.
func VerifyNoLeaks(t testing.TB) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	const slack = 3
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= baseline+slack {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("goroutines leaked: baseline %d, now %d\n%s",
					baseline, runtime.NumGoroutine(), buf)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
