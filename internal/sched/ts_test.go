package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTSBoundsConcurrency(t *testing.T) {
	ts := NewTS(3)
	if ts.MaxConcurrent() != 3 {
		t.Fatalf("max %d", ts.MaxConcurrent())
	}
	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if !ts.Acquire(stop) {
					return
				}
				n := cur.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(time.Microsecond * 50)
				cur.Add(-1)
				ts.Release()
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 3 {
		t.Fatalf("concurrency peaked at %d, bound 3", got)
	}
	if ts.Running() != 0 || ts.Waiting() != 0 {
		t.Fatalf("leaked permits: running=%d waiting=%d", ts.Running(), ts.Waiting())
	}
}

// queueWaiters parks one waiter per stop channel behind the held permit,
// in slice order. A granted waiter sends its index on granted while it
// holds the permit, so granted lists the grants in order, and then
// releases; an aborted waiter sends its index on aborted.
func queueWaiters(t *testing.T, ts *TS, stops []chan struct{}) (granted, aborted chan int) {
	t.Helper()
	granted, aborted = make(chan int, len(stops)), make(chan int, len(stops))
	for i, stop := range stops {
		before := ts.Waiting()
		go func() {
			if !ts.Acquire(stop) {
				aborted <- i
				return
			}
			granted <- i
			ts.Release()
		}()
		for ts.Waiting() == before {
			time.Sleep(time.Millisecond)
		}
	}
	return granted, aborted
}

// recv returns the next index sent on c.
func recv(t *testing.T, c chan int) int {
	t.Helper()
	select {
	case i := <-c:
		return i
	case <-time.After(2 * time.Second):
		t.Fatal("no waiter reported in time")
		return -1
	}
}

func TestTSGrantsInArrivalOrder(t *testing.T) {
	ts := NewTS(1)
	if !ts.Acquire(nil) {
		t.Fatal("initial acquire failed")
	}
	granted, _ := queueWaiters(t, ts, make([]chan struct{}, 4))
	ts.Release()
	for want := 0; want < 4; want++ {
		if got := recv(t, granted); got != want {
			t.Fatalf("grant %d went to waiter %d, want arrival order", want, got)
		}
	}
}

// TestTSNoStarvation: a holder that keeps releasing and re-acquiring
// cannot overtake a queued waiter — the waiter gets the permit on the
// holder's next release, and the re-acquire queues behind it.
func TestTSNoStarvation(t *testing.T) {
	ts := NewTS(1)
	if !ts.Acquire(nil) {
		t.Fatal("acquire failed")
	}
	granted := make(chan struct{})
	go func() {
		if ts.Acquire(nil) {
			close(granted)
			ts.Release()
		}
	}()
	for ts.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	ts.Release()
	if !ts.Acquire(nil) {
		t.Fatal("re-acquire failed")
	}
	select {
	case <-granted:
	default:
		t.Fatal("waiter not granted on the holder's release")
	}
	ts.Release()
	if ts.Running() != 0 || ts.Waiting() != 0 {
		t.Fatalf("leaked permits: running=%d waiting=%d", ts.Running(), ts.Waiting())
	}
}

func TestTSAcquireAbortsOnStop(t *testing.T) {
	ts := NewTS(1)
	if !ts.Acquire(nil) {
		t.Fatal("acquire failed")
	}
	stop := make(chan struct{})
	got := make(chan bool, 1)
	go func() {
		got <- ts.Acquire(stop)
	}()
	for ts.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if v := <-got; v {
		t.Fatal("aborted Acquire returned true")
	}
	if ts.Waiting() != 0 {
		t.Fatal("aborted waiter leaked")
	}
	ts.Release()
	if ts.Running() != 0 {
		t.Fatal("permit leaked")
	}
}

// TestTSStopRacingGrantReturnsPermit closes a waiter's stop right before
// the release that grants it, so the grant can land between the waiter
// waking on stop and leaving the queue; it must then hand the permit
// straight back, and no permit or queue slot may leak.
func TestTSStopRacingGrantReturnsPermit(t *testing.T) {
	ts := NewTS(1)
	for i := 0; i < 200; i++ {
		if !ts.Acquire(nil) {
			t.Fatal("acquire failed")
		}
		stop := make(chan struct{})
		granted, aborted := queueWaiters(t, ts, []chan struct{}{stop})
		close(stop)
		ts.Release()
		select {
		case <-granted:
		case <-aborted:
		}
		for ts.Running() != 0 {
			time.Sleep(time.Microsecond)
		}
		if ts.Waiting() != 0 {
			t.Fatalf("round %d: waiter leaked", i)
		}
	}
}

func TestTSMinimumOneSlot(t *testing.T) {
	ts := NewTS(0)
	if ts.MaxConcurrent() != 1 {
		t.Fatalf("max %d, want clamp to 1", ts.MaxConcurrent())
	}
}

// TestTSAbortFromMiddleOfQueue aborts a waiter that is neither the oldest
// nor the newest and checks the remaining waiters still grant in arrival
// order.
func TestTSAbortFromMiddleOfQueue(t *testing.T) {
	ts := NewTS(1)
	if !ts.Acquire(nil) {
		t.Fatal("initial acquire failed")
	}
	stops := make([]chan struct{}, 3)
	stops[1] = make(chan struct{})
	granted, aborted := queueWaiters(t, ts, stops)
	close(stops[1])
	if got := recv(t, aborted); got != 1 {
		t.Fatalf("waiter %d aborted, want 1", got)
	}
	if ts.Waiting() != 2 {
		t.Fatalf("waiting %d after abort, want 2", ts.Waiting())
	}
	ts.Release()
	for _, want := range []int{0, 2} {
		if got := recv(t, granted); got != want {
			t.Fatalf("grant went to waiter %d, want %d", got, want)
		}
	}
}
