package simtime

import (
	"testing"
	"time"
)

func TestRealMonotone(t *testing.T) {
	c := NewReal()
	prev := c.Now()
	for i := 0; i < 100; i++ {
		now := c.Now()
		if now < prev {
			t.Fatalf("clock went backwards: %d -> %d", prev, now)
		}
		prev = now
	}
}

func TestRealSleep(t *testing.T) {
	c := NewReal()
	start := c.Now()
	c.Sleep(5 * int64(time.Millisecond))
	if d := c.Now() - start; d < 5*int64(time.Millisecond) {
		t.Fatalf("slept only %v", time.Duration(d))
	}
	c.Sleep(-1) // must not block
	c.Sleep(0)
}

func TestBusyOccupiesAtLeast(t *testing.T) {
	for _, d := range []int64{0, 100, 10_000, 500_000} {
		start := time.Now()
		Busy(d)
		if got := int64(time.Since(start)); got < d {
			t.Fatalf("Busy(%d) returned after %d", d, got)
		}
	}
}

func TestBusyDoesNotOversleepWildly(t *testing.T) {
	const d = 2_000_000 // 2ms
	start := time.Now()
	Busy(d)
	if got := int64(time.Since(start)); got > 20*d {
		t.Fatalf("Busy(%d) took %d, far over budget", d, got)
	}
}
