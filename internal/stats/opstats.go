package stats

import (
	"math"
	"sync/atomic"
)

// alpha is the smoothing factor of the c(v) and d(v) estimates: each
// sample moves an estimate 5 % of the way toward itself.
const alpha = 0.05

// spikeCap bounds a c(v) sample at this multiple of the current estimate.
// A cost sample is a metered batch's wall-clock time per element, and a
// batch preempted by the OS reads up to a hundred times its cost: folded
// in whole it moved the estimate several-fold for a snapshot, and a plan
// made from that snapshot cut a cheap operator away. Capped, one such
// sample moves c(v) by at most 15 %, while a real rise still compounds
// 15 % per sample until the estimate is within the cap. d(v) is not
// capped: a pause in the input is a real interarrival gap.
const spikeCap = 4

// OpStats tracks what one operator did: element counts and the smoothed
// per-element cost c(v) and input interarrival time d(v) (paper §5.1.3
// assumes the DSMS provides these as runtime metadata). The counters are
// atomics. The estimates have one writer, the goroutine driving the
// operator (package op's concurrency contract), and are published as
// atomic float bits, so samplers, planners and metric dumps read all of it
// without a lock. The zero value is ready to use.
type OpStats struct {
	in, out     atomic.Uint64
	cost, inter ewma
}

// ewma is an exponentially weighted moving average with one writer and
// any number of concurrent readers. The first sample sets it exactly.
type ewma struct {
	bits   atomic.Uint64 // math.Float64bits of the current value
	primed bool          // read and written by the writer only
}

func (e *ewma) observe(v float64) {
	if e.primed {
		old := math.Float64frombits(e.bits.Load())
		v = old + alpha*(v-old)
	}
	e.primed = true
	e.bits.Store(math.Float64bits(v))
}

func (e *ewma) value() float64 { return math.Float64frombits(e.bits.Load()) }

// RecordIn notes n received elements.
func (s *OpStats) RecordIn(n int) { s.in.Add(uint64(n)) }

// RecordOut notes n emitted elements.
func (s *OpStats) RecordOut(n int) { s.out.Add(uint64(n)) }

// ObserveCost folds one per-element processing cost sample, in
// nanoseconds, into c(v), capped at spikeCap times the current estimate
// (the first sample is taken whole). Only the operator's driving
// goroutine may call it.
func (s *OpStats) ObserveCost(ns float64) {
	if c := s.cost.value(); s.cost.primed && c > 0 {
		ns = min(ns, spikeCap*c)
	}
	s.cost.observe(ns)
}

// ObserveInterarrival folds one mean input gap, in nanoseconds, into d(v).
// Only the operator's driving goroutine may call it.
func (s *OpStats) ObserveInterarrival(ns float64) { s.inter.observe(ns) }

// In returns the number of elements received.
func (s *OpStats) In() uint64 { return s.in.Load() }

// Out returns the number of elements emitted.
func (s *OpStats) Out() uint64 { return s.out.Load() }

// CostNS returns the smoothed per-element processing cost c(v) in
// nanoseconds, or 0 before any measurement.
func (s *OpStats) CostNS() float64 { return s.cost.value() }

// InterarrivalNS returns the smoothed input interarrival time d(v) in
// nanoseconds, or 0 before any measurement.
func (s *OpStats) InterarrivalNS() float64 { return s.inter.value() }

// Selectivity returns out/in, the operator's observed selectivity, or 1
// before any input (the neutral assumption for planning).
func (s *OpStats) Selectivity() float64 {
	in := s.in.Load()
	if in == 0 {
		return 1
	}
	return float64(s.out.Load()) / float64(in)
}
