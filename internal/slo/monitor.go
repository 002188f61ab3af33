// Package slo measures end-to-end service levels as per-second time
// series and checks them against declarative assertions. It is the
// measurement half of the scenario soak harness (cmd/hmtssoak): operators
// and sinks feed a Monitor with per-element latency observations, the
// runner rolls the monitor once per second and attaches engine gauges
// (backlog, drops, queue depth), and at the end of a run the collected
// series is judged by Assertions that turn "the engine held up under
// fire" into a pass/fail answer.
//
// The shape follows ptest-style open-loop monitoring: latency is grouped
// into wall-clock seconds and each second reports its own p50/p90/p99/max,
// so a one-second stall shows up as one bad second instead of being
// averaged away across the run — exactly the signal an SLO like "p99 below
// 5ms in 95% of seconds" needs.
package slo

import (
	"fmt"
	"sync"

	"github.com/dsms/hmts/internal/stats"
	"github.com/dsms/hmts/internal/stream"
)

// Second is one completed per-second sample of the run.
type Second struct {
	// Index is the second's ordinal since the start of the run (0-based).
	Index int
	// Count is how many latency observations landed in the second.
	Count uint64
	// P50, P90, P99 and Max are latency quantiles in nanoseconds over the
	// second's observations; zero when Count is zero.
	P50, P90, P99, Max float64
	// Dropped is how many elements the ingress edge dropped during the
	// second (delta, not cumulative).
	Dropped uint64
	// Backlog is the ingress-buffer occupancy at the end of the second.
	Backlog int
	// QueueLen is the deepest decoupling-queue backlog at the end of the
	// second.
	QueueLen int
	// Overshoot is the cumulative count of elements enqueued past a queue
	// bound at the end of the second.
	Overshoot uint64
	// Events names the faults injected (or released) during the second.
	Events []string
}

// String renders the second as one soak-log line.
func (s Second) String() string {
	line := fmt.Sprintf("sec=%-3d n=%-7d p50=%-9s p90=%-9s p99=%-9s max=%-9s drop=%-6d backlog=%-5d qlen=%-5d",
		s.Index, s.Count, fmtNS(s.P50), fmtNS(s.P90), fmtNS(s.P99), fmtNS(s.Max), s.Dropped, s.Backlog, s.QueueLen)
	for _, ev := range s.Events {
		line += " [" + ev + "]"
	}
	return line
}

// fmtNS renders a nanosecond quantity with a readable unit.
func fmtNS(ns float64) string {
	switch {
	case ns <= 0:
		return "-"
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1fus", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.2fms", ns/1e6)
	}
	return fmt.Sprintf("%.2fs", ns/1e9)
}

// Monitor accumulates latency observations into the current second. Any
// number of goroutines may Observe concurrently; one goroutine (the
// scenario runner) calls Roll to close a second and start the next.
//
// The open second is a fixed-size histogram that counts every
// observation, so a multi-hundred-kHz stream costs a fixed amount of
// memory per second and the per-second quantiles carry no sampling error.
type Monitor struct {
	mu     sync.Mutex
	hist   stats.Hist // the open second
	events []string
	secs   []Second
}

// NewMonitor returns a monitor with an empty open second.
func NewMonitor() *Monitor { return &Monitor{} }

// Observe records one end-to-end latency, in nanoseconds, into the
// current second. Safe for concurrent callers.
func (m *Monitor) Observe(latencyNS int64) {
	m.mu.Lock()
	m.hist.Record(latencyNS)
	m.mu.Unlock()
}

// ObserveBatch records the latency now − e.TS of every element of es into
// the current second under one lock. Safe for concurrent callers.
func (m *Monitor) ObserveBatch(now int64, es []stream.Element) {
	m.mu.Lock()
	for _, e := range es {
		m.hist.Record(now - e.TS)
	}
	m.mu.Unlock()
}

// Event tags the current second with a fault-injection marker; it shows up
// in the second's log line and series record.
func (m *Monitor) Event(name string) {
	m.mu.Lock()
	m.events = append(m.events, name)
	m.mu.Unlock()
}

// Roll closes the current second, computes its quantiles, attaches the
// gauges, appends it to the series and resets for the next second. The
// returned Second is the completed sample.
func (m *Monitor) Roll(gauges Gauges) Second {
	m.mu.Lock()
	s := Second{
		Index:     len(m.secs),
		Count:     m.hist.Count(),
		P50:       m.hist.Quantile(0.50),
		P90:       m.hist.Quantile(0.90),
		P99:       m.hist.Quantile(0.99),
		Max:       float64(m.hist.Max()),
		Dropped:   gauges.Dropped,
		Backlog:   gauges.Backlog,
		QueueLen:  gauges.QueueLen,
		Overshoot: gauges.Overshoot,
		Events:    m.events,
	}
	m.hist = stats.Hist{}
	m.events = nil
	m.secs = append(m.secs, s)
	m.mu.Unlock()
	return s
}

// Gauges carries the engine-side readings the runner attaches to a second
// at roll time.
type Gauges struct {
	Dropped   uint64 // ingress drops during the second (delta)
	Backlog   int    // ingress-buffer occupancy now
	QueueLen  int    // deepest decoupling-queue backlog now
	Overshoot uint64 // cumulative bound overshoot now
}

// Series returns a copy of the completed seconds so far.
func (m *Monitor) Series() []Second {
	m.mu.Lock()
	out := make([]Second, len(m.secs))
	copy(out, m.secs)
	m.mu.Unlock()
	return out
}
