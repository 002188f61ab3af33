package stats

import (
	"fmt"
	"strings"
	"sync"
)

// Point is one sample in a time series: T in nanoseconds, V the value.
type Point struct {
	T int64
	V float64
}

// Series is an append-only time series, safe for one writer and concurrent
// readers of snapshots. The experiment harness uses it for the queue-memory
// and results-over-time curves of Figures 9 and 10.
type Series struct {
	mu   sync.Mutex
	name string
	pts  []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Add appends a sample.
func (s *Series) Add(t int64, v float64) {
	s.mu.Lock()
	s.pts = append(s.pts, Point{T: t, V: v})
	s.mu.Unlock()
}

// Points returns a copy of the samples.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.pts))
	copy(out, s.pts)
	return out
}

// Len returns the number of samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pts)
}

// Max returns the maximum value observed, or 0 for an empty series.
func (s *Series) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	max := 0.0
	for i, p := range s.pts {
		if i == 0 || p.V > max {
			max = p.V
		}
	}
	return max
}

// Mean returns the arithmetic mean of the sample values, or 0 for an
// empty series.
func (s *Series) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pts) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.pts {
		sum += p.V
	}
	return sum / float64(len(s.pts))
}

// CSV renders the series as "t_seconds,value" lines.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t_s,%s\n", s.name)
	for _, p := range s.Points() {
		fmt.Fprintf(&b, "%.6f,%g\n", float64(p.T)/1e9, p.V)
	}
	return b.String()
}
