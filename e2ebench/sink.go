package main

import (
	"sync"
	"sync/atomic"

	hmts "github.com/dsms/hmts"
)

// stampLog holds the admission stamp of every generator tick of an
// open-loop phase, and the phase's latencies per slice of perSlice ticks.
// Element seq was pushed in tick seq/perTick, so a sink finds its stamp
// from the output's timestamp alone. Atomic slots let the wire reader,
// which learns of an element through the socket rather than through the
// engine's synchronisation, read what the producer wrote. All of a phase's
// timed sinks share one log.
type stampLog struct {
	perTick  int
	perSlice int
	t        []atomic.Int64

	mu sync.Mutex
	h  []Hist // latencies per slice
}

func newStampLog(slices, perSlice, perTick int) *stampLog {
	return &stampLog{perTick: perTick, perSlice: perSlice, t: make([]atomic.Int64, slices*perSlice), h: make([]Hist, slices)}
}

// record adds the latencies of results es, delivered at t.
func (l *stampLog) record(in input, es []hmts.Element, t int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range es {
		k := in.seqOf(es[i].TS) / l.perTick
		if k < 0 || k >= len(l.t) {
			k = 0
		}
		l.h[k/l.perSlice].Record(t - l.t[k].Load())
	}
}

// slices returns the latencies per slice; call it once the phase has
// drained.
func (l *stampLog) slices() []Hist {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h
}

// sink terminates a measured query. It digests every result for the
// correctness check, notes when the last one arrived, and in latency
// phases records each result's admission-to-sink time. The engine may call
// it from different executor goroutines over a run, so it locks once per
// delivery call — never per element.
type sink struct {
	in input
	tr *tracer

	mu    sync.Mutex
	lat   *stampLog // nil: do not time this sink
	d     digest
	calls uint64
	last  int64
}

func newSink(in input, tr *tracer) *sink { return &sink{in: in, tr: tr} }

// time arms latency recording against l.
func (s *sink) time(l *stampLog) {
	s.mu.Lock()
	s.lat = l
	s.mu.Unlock()
}

// Process implements hmts.Sink.
func (s *sink) Process(port int, e hmts.Element) {
	one := [1]hmts.Element{e}
	s.ProcessBatch(port, one[:])
}

// ProcessBatch lets batched delivery stay batched.
func (s *sink) ProcessBatch(_ int, es []hmts.Element) {
	t := now()
	s.mu.Lock()
	for i := range es {
		e := &es[i]
		s.d.add(int64(e.TS), e.Key, e.Val)
	}
	s.calls++
	s.last = t
	lat := s.lat
	s.mu.Unlock()
	if lat != nil {
		lat.record(s.in, es, t)
	}
	s.tr.record(spanSink, t, now())
}

// Done implements hmts.Sink.
func (s *sink) Done(int) {}

// snapshot returns the digest, call count and last-delivery time.
func (s *sink) snapshot() (digest, uint64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d, s.calls, s.last
}
