// Package stats collects the runtime metadata the scheduler and the queue
// placement heuristic consume: per-operator processing cost c(v), input
// interarrival time d(v), selectivities, queue occupancy time series, and
// result latencies.
package stats

import "sync"

// EWMA is an exponentially weighted moving average. It is the estimator the
// engine uses for c(v) and d(v) (paper §5.1.3 assumes the DSMS provides
// these as runtime metadata). The zero value is unusable; use NewEWMA.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	value float64
	n     uint64
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]; larger
// alpha weighs recent observations more.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha out of (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a new sample into the average. The first sample initializes
// the average exactly.
func (e *EWMA) Observe(v float64) {
	e.mu.Lock()
	if e.n == 0 {
		e.value = v
	} else {
		e.value += e.alpha * (v - e.value)
	}
	e.n++
	e.mu.Unlock()
}

// Value returns the current average, or 0 before any observation.
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}

// Count returns the number of observations folded in.
func (e *EWMA) Count() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}
