// Package simtime abstracts the engine's notion of time.
//
// Real-time experiments (the paper's §6 setup) use the wall clock, usually
// scaled down so that a 260-second experiment finishes in a couple of
// seconds without changing any ratio between operator costs, arrival rates
// and window lengths.
package simtime

import "time"

// Clock supplies current time and sleeping. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time in nanoseconds since the clock's epoch.
	Now() int64
	// Sleep blocks the caller for d nanoseconds of this clock's time.
	// Negative or zero durations return immediately.
	Sleep(d int64)
}

// Real is a Clock backed by the process monotonic clock. Its epoch is the
// moment it is created, so Now starts near zero, matching the event-time
// convention in package stream.
type Real struct {
	start time.Time
}

// NewReal returns a wall-clock Clock whose epoch is now.
func NewReal() *Real { return &Real{start: time.Now()} }

// Now implements Clock.
func (r *Real) Now() int64 { return int64(time.Since(r.start)) }

// Sleep implements Clock.
func (r *Real) Sleep(d int64) {
	if d <= 0 {
		return
	}
	time.Sleep(time.Duration(d))
}
