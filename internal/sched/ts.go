package sched

import (
	"slices"
	"sync"
)

// TS is the level-3 thread scheduler: a run-permit arbiter that bounds how
// many partition executors run simultaneously. Go offers no preemption of
// goroutines, so preemption is cooperative: executors hold a permit for at
// most one quantum and then hand it back (paper §4.2.2). Waiters are
// granted in arrival order, so a waiter runs after at most the waiters
// queued ahead of it and no executor starves.
type TS struct {
	mu      sync.Mutex
	max     int
	running int
	waiting []chan struct{} // one per queued executor, oldest first; closed on grant
}

// NewTS returns a thread scheduler allowing maxConcurrent simultaneous
// permits (values below 1 are raised to 1).
func NewTS(maxConcurrent int) *TS {
	return &TS{max: max(maxConcurrent, 1)}
}

// MaxConcurrent returns the permit bound.
func (ts *TS) MaxConcurrent() int { return ts.max }

// Acquire blocks until the caller is granted a run permit or stop closes;
// it reports whether a permit was obtained. Each successful Acquire must be
// paired with Release.
func (ts *TS) Acquire(stop <-chan struct{}) bool {
	ts.mu.Lock()
	if ts.running < ts.max {
		ts.running++
		ts.mu.Unlock()
		return true
	}
	ch := make(chan struct{})
	ts.waiting = append(ts.waiting, ch)
	ts.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-stop:
	}
	ts.mu.Lock()
	if i := slices.Index(ts.waiting, ch); i >= 0 {
		ts.waiting = slices.Delete(ts.waiting, i, i+1)
		ts.mu.Unlock()
		return false
	}
	ts.mu.Unlock()
	// The grant raced with stop; hand the permit straight back.
	ts.Release()
	return false
}

// Release hands the permit straight to the oldest waiter, if any: waiters
// exist only while every permit is held, so Acquire's fast path is fair.
func (ts *TS) Release() {
	ts.mu.Lock()
	if len(ts.waiting) == 0 {
		ts.running--
	} else {
		close(ts.waiting[0])
		ts.waiting[0] = nil
		ts.waiting = ts.waiting[1:]
	}
	ts.mu.Unlock()
}

// Running returns the number of permits currently held.
func (ts *TS) Running() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.running
}

// Waiting returns the number of executors queued for a permit.
func (ts *TS) Waiting() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.waiting)
}
