package slo

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/stream"
)

func TestMonitorRollQuantiles(t *testing.T) {
	m := NewMonitor()
	for i := 1; i <= 1000; i++ {
		m.Observe(int64(i))
	}
	s := m.Roll(Gauges{Dropped: 5, Backlog: 7, QueueLen: 9, Overshoot: 2})
	if s.Count != 1000 {
		t.Fatalf("count=%d, want 1000", s.Count)
	}
	if s.Max != 1000 {
		t.Fatalf("max=%v, want 1000", s.Max)
	}
	if s.P50 < 480 || s.P50 > 520 {
		t.Fatalf("p50=%v, want ~500", s.P50)
	}
	if s.P99 < 970 || s.P99 > 1000 {
		t.Fatalf("p99=%v, want ~990", s.P99)
	}
	if s.P90 < 880 || s.P90 > 920 {
		t.Fatalf("p90=%v, want ~900", s.P90)
	}
	if s.Dropped != 5 || s.Backlog != 7 || s.QueueLen != 9 || s.Overshoot != 2 {
		t.Fatalf("gauges not carried: %+v", s)
	}

	// The roll resets the bucket: a second roll reports an empty second.
	s2 := m.Roll(Gauges{})
	if s2.Index != 1 || s2.Count != 0 || s2.P99 != 0 || s2.Max != 0 {
		t.Fatalf("second roll not reset: %+v", s2)
	}
	if got := len(m.Series()); got != 2 {
		t.Fatalf("series length %d, want 2", got)
	}
}

func TestMonitorReservoirBoundsMemory(t *testing.T) {
	// A second of 100k observations fits the fixed-size histogram; every
	// one counts, so p99 is off by the bucket resolution (1/64) only.
	m := NewMonitor()
	for i := 0; i < 100_000; i++ {
		m.Observe(int64(i))
	}
	s := m.Roll(Gauges{})
	if s.Count != 100_000 {
		t.Fatalf("count=%d", s.Count)
	}
	if s.Max != 99_999 {
		t.Fatalf("max must be exact: %v", s.Max)
	}
	if want := 98_999.0; s.P99 < want || s.P99 > want*(1+1.0/64) {
		t.Fatalf("p99=%v, want %v within one bucket", s.P99, want)
	}
}

func TestMonitorConcurrentObserve(t *testing.T) {
	m := NewMonitor()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				m.Observe(int64(w*10_000 + i))
			}
		}(w)
	}
	wg.Wait()
	s := m.Roll(Gauges{})
	if s.Count != 80_000 {
		t.Fatalf("count=%d, want 80000", s.Count)
	}
}

func TestMonitorObserveBatch(t *testing.T) {
	m := NewMonitor()
	es := []stream.Element{{TS: 900}, {TS: 500}, {TS: 990}}
	if n := testing.AllocsPerRun(100, func() { m.ObserveBatch(1000, es) }); n != 0 {
		t.Fatalf("ObserveBatch allocates %v times per batch", n)
	}
	s := m.Roll(Gauges{})
	if s.Count != 3*101 || s.Max != 500 || s.P50 != 100 {
		t.Fatalf("count=%d max=%v p50=%v, want %d 500 100", s.Count, s.Max, s.P50, 3*101)
	}
}

func TestMonitorEventTagsCurrentSecond(t *testing.T) {
	m := NewMonitor()
	m.Observe(1)
	m.Event("stall+")
	s := m.Roll(Gauges{})
	if len(s.Events) != 1 || s.Events[0] != "stall+" {
		t.Fatalf("events=%v", s.Events)
	}
	if !strings.Contains(s.String(), "[stall+]") {
		t.Fatalf("String() misses event: %q", s.String())
	}
	if s2 := m.Roll(Gauges{}); len(s2.Events) != 0 {
		t.Fatalf("event leaked into next second: %v", s2.Events)
	}
}

// sec builds a series entry for assertion tests.
func sec(i int, count uint64, p50, p99 float64) Second {
	return Second{Index: i, Count: count, P50: p50, P90: p99, P99: p99, Max: p99}
}

func TestLatencyBelow(t *testing.T) {
	ms := float64(time.Millisecond)
	series := []Second{
		sec(0, 100, 1*ms, 4*ms),
		sec(1, 100, 1*ms, 4*ms),
		sec(2, 0, 0, 0), // no traffic: skipped
		sec(3, 100, 1*ms, 50*ms),
		sec(4, 100, 1*ms, 4*ms),
	}
	// 3/4 traffic seconds within 5ms.
	if err := (LatencyBelow{Q: P99, Bound: 5 * time.Millisecond, Frac: 0.75}).Check(series); err != nil {
		t.Fatalf("expected pass: %v", err)
	}
	if err := (LatencyBelow{Q: P99, Bound: 5 * time.Millisecond, Frac: 0.9}).Check(series); err == nil {
		t.Fatal("expected 90% requirement to fail")
	}
	// Frac 0 defaults to every second.
	if err := (LatencyBelow{Q: P50, Bound: 2 * time.Millisecond}).Check(series); err != nil {
		t.Fatalf("p50 should pass everywhere: %v", err)
	}
	if err := (LatencyBelow{Q: P99, Bound: time.Millisecond}).Check(nil); err == nil {
		t.Fatal("empty series must fail, not vacuously pass")
	}
}

func TestBoundedBacklog(t *testing.T) {
	series := []Second{
		{Index: 0, Backlog: 10, QueueLen: 100},
		{Index: 1, Backlog: 900, QueueLen: 100},
	}
	if err := (BoundedBacklog{MaxIngress: 1000, MaxQueue: 200}).Check(series); err != nil {
		t.Fatalf("expected pass: %v", err)
	}
	if err := (BoundedBacklog{MaxIngress: 500, MaxQueue: 200}).Check(series); err == nil {
		t.Fatal("ingress breach undetected")
	}
	if err := (BoundedBacklog{MaxQueue: 50}).Check(series); err == nil {
		t.Fatal("queue breach undetected")
	}
	// Zero limits are skipped.
	if err := (BoundedBacklog{}).Check(series); err != nil {
		t.Fatalf("zero limits must skip: %v", err)
	}
}

func TestMinThroughputAndDrops(t *testing.T) {
	series := []Second{
		{Index: 0, Count: 500, Dropped: 0},
		{Index: 1, Count: 800, Dropped: 100},
		{Index: 2, Count: 10, Dropped: 0},
	}
	if err := (MinThroughput{PerSec: 100, Frac: 0.6}).Check(series); err != nil {
		t.Fatalf("expected pass: %v", err)
	}
	if err := (MinThroughput{PerSec: 100}).Check(series); err == nil {
		t.Fatal("starved second undetected at Frac=1")
	}
	if err := (MaxDropFrac{Frac: 0.1}).Check(series); err != nil {
		t.Fatalf("expected pass (100/1310 dropped): %v", err)
	}
	if err := (MaxDropFrac{Frac: 0}).Check(series); err == nil {
		t.Fatal("zero-loss assertion must catch drops")
	}
}

func TestCheckAllCollectsViolations(t *testing.T) {
	series := []Second{sec(0, 10, 1, 1)}
	asserts := []Assertion{
		MinThroughput{PerSec: 1},    // passes
		MinThroughput{PerSec: 1000}, // fails
		MaxDropFrac{Frac: 0},        // passes
	}
	v := CheckAll(series, asserts)
	if len(v) != 1 {
		t.Fatalf("violations=%v, want exactly one", v)
	}
}
