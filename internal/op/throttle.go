package op

import "github.com/dsms/hmts/internal/stream"

// Throttle is an event-time token-bucket load shedder: it forwards at most
// RateHz elements per second of stream time with bursts up to Burst, and
// drops the excess. Shedding at the inputs is the standard overload
// defense for a DSMS (paper §1: "avoid the risk of system overload");
// because the bucket runs on event time it is fully deterministic.
type Throttle struct {
	Base
	gapNS   int64 // nanoseconds of stream time earning one token
	burst   int64
	tokens  int64
	credNS  int64 // accumulated stream time not yet converted to tokens
	lastTS  int64
	started bool
	dropped uint64
}

// NewThrottle returns a shedder passing rateHz elements per second with
// the given burst capacity (elements; values < 1 are raised to 1). Token
// accounting is integral (one token per 1e9/rateHz nanoseconds), so the
// pass count over a span of stream time is exact.
func NewThrottle(name string, rateHz float64, burst float64) *Throttle {
	if rateHz <= 0 {
		panic("op: throttle rate must be positive")
	}
	if burst < 1 {
		burst = 1
	}
	gap := int64(1e9 / rateHz)
	if gap < 1 {
		gap = 1
	}
	t := &Throttle{gapNS: gap, burst: int64(burst), tokens: int64(burst)}
	t.InitBase(name, 1)
	return t
}

// Dropped returns how many elements were shed.
func (t *Throttle) Dropped() uint64 { return t.dropped }

// admit runs the token-bucket accounting for one element and reports
// whether it passes.
func (t *Throttle) admit(e stream.Element) bool {
	if t.started {
		if dt := e.TS - t.lastTS; dt > 0 {
			t.credNS += dt
			if earned := t.credNS / t.gapNS; earned > 0 {
				t.credNS -= earned * t.gapNS
				t.tokens += earned
				if t.tokens > t.burst {
					t.tokens = t.burst
					t.credNS = 0
				}
			}
		}
	}
	t.started = true
	t.lastTS = e.TS
	if t.tokens >= 1 {
		t.tokens--
		return true
	}
	t.dropped++
	return false
}

// ProcessBatch implements Sink. Token accounting runs on each element's
// event time — only the metering and the downstream dispatch are batched.
func (t *Throttle) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	t.BeginWorkBatch(es)
	out := t.scratch(len(es))
	for _, e := range es {
		if t.admit(e) {
			out = append(out, e)
		}
	}
	t.flush(out)
	t.EndWorkBatch()
}

// Done implements Sink.
func (t *Throttle) Done(port int) {
	if t.MarkDone(port) {
		t.Close()
	}
}
