package op

import (
	"sync/atomic"

	"github.com/dsms/hmts/internal/stream"
)

// TopK tracks the k most frequent keys within a sliding time window and
// emits an element whenever a key enters the top-k set (Key = the entering
// key, Val = its current in-window count, TS = the triggering element).
// It is the classic "heavy hitters" monitoring operator; the intrusion
// example uses it to surface the busiest hosts.
//
// Event time must be nondecreasing.
type TopK struct {
	Base
	k       int
	window  int64
	counts  map[int64]int64
	order   fifo[stream.Element]
	inTop   map[int64]bool
	spare   map[int64]bool // cleared and swapped with inTop each step
	cand    []int64        // reused candidate buffer for top-k selection
	heldPub atomic.Int64   // published order.len() for race-free RetainedRows
}

// NewTopK returns a top-k tracker over a time window in nanoseconds.
func NewTopK(name string, k int, window int64) *TopK {
	if k < 1 {
		panic("op: TopK needs k >= 1")
	}
	if window <= 0 {
		panic("op: TopK window must be positive")
	}
	t := &TopK{
		k:      k,
		window: window,
		counts: make(map[int64]int64),
		inTop:  make(map[int64]bool),
		spare:  make(map[int64]bool),
		cand:   make([]int64, 0, k),
	}
	t.InitBase(name, 1)
	return t
}

// Top returns the current top-k keys, most frequent first (ties by
// ascending key). The returned slice is the caller's to keep.
func (t *TopK) Top() []int64 {
	return append([]int64(nil), t.topInto()...)
}

// topInto refreshes t.cand with the current top-k keys, most frequent
// first (ties by ascending key), allocation-free: a bounded insertion
// into the k-slot candidate buffer replaces sorting the whole key set on
// every element.
func (t *TopK) topInto() []int64 {
	cand := t.cand[:0]
	for key, c := range t.counts {
		i := len(cand)
		for i > 0 {
			pk := cand[i-1]
			if pc := t.counts[pk]; pc > c || (pc == c && pk < key) {
				break
			}
			i--
		}
		if i == t.k {
			continue // ranks below every kept candidate
		}
		if len(cand) < t.k {
			cand = append(cand, 0)
		}
		copy(cand[i+1:], cand[i:])
		cand[i] = key
	}
	t.cand = cand
	return cand
}

// step folds one element into the window counts and appends an element to
// out for every key newly entering the top-k set.
func (t *TopK) step(e stream.Element, out []stream.Element) []stream.Element {
	deadline := e.TS - t.window
	for !t.order.empty() && t.order.front().TS <= deadline {
		old := t.order.pop()
		if c := t.counts[old.Key] - 1; c <= 0 {
			delete(t.counts, old.Key)
		} else {
			t.counts[old.Key] = c
		}
	}
	t.counts[e.Key]++
	t.order.push(stream.Element{TS: e.TS, Key: e.Key, Seq: e.Seq})

	top := t.topInto()
	newSet := t.spare
	clear(newSet)
	for _, k := range top {
		newSet[k] = true
		if !t.inTop[k] {
			out = append(out, stream.Element{TS: e.TS, Key: k, Val: float64(t.counts[k]), Seq: e.Seq})
		}
	}
	t.spare, t.inTop = t.inTop, newSet
	return out
}

// ExportShardState implements ShardState: the count markers still in the
// window, already in arrival (= Seq) order. Note that under sharding TopK
// has per-shard semantics: each replica surfaces the heavy hitters of its
// key partition, not a global top-k.
func (t *TopK) ExportShardState() []PortedElement {
	pes := make([]PortedElement, 0, t.order.len())
	t.order.each(func(e stream.Element) { pes = append(pes, PortedElement{E: e}) })
	return pes
}

// RetainedRows reports the count markers currently in the window — the
// state a reshard must port. Safe to read while an executor is processing.
func (t *TopK) RetainedRows() int { return int(t.heldPub.Load()) }

// ImportShardElement implements ShardState: replay one marker, rebuilding
// counts and the in-top set without emitting.
func (t *TopK) ImportShardElement(_ int, e stream.Element) {
	out := t.step(e, t.scratch(t.k))
	t.obuf = out[:0]
	t.heldPub.Store(int64(t.order.len()))
}

// ProcessBatch implements Sink: entering-key notifications accumulate
// across the batch and leave in one fan-out dispatch.
func (t *TopK) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	t.BeginWorkBatch(es)
	out := t.scratch(len(es))
	for _, e := range es {
		out = t.step(e, out)
	}
	t.heldPub.Store(int64(t.order.len()))
	t.flush(out)
	t.EndWorkBatch()
}

// Done implements Sink.
func (t *TopK) Done(port int) {
	if t.MarkDone(port) {
		t.Close()
	}
}
