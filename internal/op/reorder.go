package op

import (
	"container/heap"

	"github.com/dsms/hmts/internal/stream"
)

// Reorder repairs bounded event-time disorder (k-slack): elements are
// buffered in a min-heap on TS and released in nondecreasing timestamp
// order once the maximum timestamp seen has advanced past their time by
// at least the slack. The typical use is downstream of a Union, whose
// output interleaving depends on scheduling: Reorder makes it time-ordered
// again so order-sensitive operators (windows, distinct, throttling)
// behave identically under every threading mode.
//
// An element later than the slack allows (its TS is already more than
// slack behind the maximum seen) is emitted immediately — k-slack never
// drops data, it only loses ordering for elements beyond its bound. At end
// of stream the buffer is flushed in order.
type Reorder struct {
	Base
	slack int64
	buf   tsHeap
	maxTS int64
	late  uint64
}

// NewReorder returns a k-slack reordering buffer with the given slack in
// nanoseconds.
func NewReorder(name string, slack int64) *Reorder {
	if slack <= 0 {
		panic("op: reorder slack must be positive")
	}
	r := &Reorder{slack: slack, maxTS: -1 << 62}
	r.InitBase(name, 1)
	return r
}

// Buffered returns the number of elements currently held back.
func (r *Reorder) Buffered() int { return len(r.buf) }

// Late returns how many elements arrived too late for the slack and were
// emitted out of order.
func (r *Reorder) Late() uint64 { return r.late }

// step buffers or releases one element, appending everything released to
// out.
func (r *Reorder) step(e stream.Element, out []stream.Element) []stream.Element {
	if e.TS > r.maxTS {
		r.maxTS = e.TS
	}
	if e.TS <= r.maxTS-r.slack {
		// Beyond the disorder bound: pass through immediately rather
		// than emit behind elements that already left.
		r.late++
		return append(out, e)
	}
	heap.Push(&r.buf, e)
	watermark := r.maxTS - r.slack
	for len(r.buf) > 0 && r.buf[0].TS <= watermark {
		out = append(out, heap.Pop(&r.buf).(stream.Element))
	}
	return out
}

// ProcessBatch implements Sink: releases across the batch accumulate and
// leave in one fan-out dispatch, in the same release order as element by
// element delivery.
func (r *Reorder) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	r.BeginWorkBatch(es)
	out := r.scratch(len(es))
	for _, e := range es {
		out = r.step(e, out)
	}
	r.flush(out)
	r.EndWorkBatch()
}

// Done implements Sink; the buffer is flushed in order before closing.
func (r *Reorder) Done(port int) {
	if !r.MarkDone(port) {
		return
	}
	out := r.scratch(len(r.buf))
	for len(r.buf) > 0 {
		out = append(out, heap.Pop(&r.buf).(stream.Element))
	}
	r.flush(out)
	r.Close()
}

// tsHeap is a min-heap of elements on (TS, Key).
type tsHeap []stream.Element

func (h tsHeap) Len() int           { return len(h) }
func (h tsHeap) Less(i, j int) bool { return h[i].Before(h[j]) }
func (h tsHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

func (h *tsHeap) Push(x any) { *h = append(*h, x.(stream.Element)) }

func (h *tsHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = stream.Element{}
	*h = old[:n-1]
	return e
}
