package op

import (
	"sync/atomic"

	"github.com/dsms/hmts/internal/ring"
	"github.com/dsms/hmts/internal/stream"
)

// Distinct suppresses duplicate keys within a sliding time window: an
// element is forwarded only if no element with the same Key was forwarded
// in the preceding window nanoseconds. Event time must be nondecreasing.
type Distinct struct {
	Base
	window  int64
	seen    map[int64]int64 // key -> last forwarded TS
	order   ring.Ring[stream.Element]
	heldPub atomic.Int64 // published order.len() for race-free RetainedRows
}

// NewDistinct returns a window-bounded duplicate eliminator.
func NewDistinct(name string, window int64) *Distinct {
	if window <= 0 {
		panic("op: distinct window must be positive")
	}
	d := &Distinct{window: window, seen: make(map[int64]int64)}
	d.InitBase(name, 1)
	return d
}

// StateLen returns the number of keys currently remembered.
func (d *Distinct) StateLen() int { return len(d.seen) }

// step expires due entries, updates the suppression state for e and
// reports whether e passes.
func (d *Distinct) step(e stream.Element) bool {
	deadline := e.TS - d.window
	for d.order.Len() > 0 && d.order.Front().TS <= deadline {
		old := d.order.Pop()
		// Only forget the key if this entry is the latest sighting;
		// a newer sighting re-armed the suppression window.
		if ts, ok := d.seen[old.Key]; ok && ts == old.TS {
			delete(d.seen, old.Key)
		}
	}
	_, dup := d.seen[e.Key]
	// Arm or refresh the suppression deadline for this key either way.
	d.seen[e.Key] = e.TS
	d.order.Push(stream.Element{TS: e.TS, Key: e.Key, Seq: e.Seq})
	return !dup
}

// ExportShardState implements ShardState: the suppression markers still in
// the window, already in arrival (= Seq) order.
func (d *Distinct) ExportShardState() []PortedElement {
	pes := make([]PortedElement, 0, d.order.Len())
	d.order.Each(func(e stream.Element) { pes = append(pes, PortedElement{E: e}) })
	return pes
}

// RetainedRows reports the suppression markers currently retained — the
// state a reshard must port. Safe to read while an executor is processing.
func (d *Distinct) RetainedRows() int { return int(d.heldPub.Load()) }

// ImportShardElement implements ShardState: replaying a marker rebuilds the
// seen map and window without forwarding anything.
func (d *Distinct) ImportShardElement(_ int, e stream.Element) {
	d.step(e)
	d.heldPub.Store(int64(d.order.Len()))
}

// ProcessBatch implements Sink. Expiry remains per element (whether a
// duplicate is suppressed depends on it), but stats and the downstream
// dispatch are batched.
func (d *Distinct) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	d.BeginWorkBatch(es)
	out := d.scratch(len(es))
	for _, e := range es {
		if d.step(e) {
			out = append(out, e)
		}
	}
	d.heldPub.Store(int64(d.order.Len()))
	d.flush(out)
	d.EndWorkBatch()
}

// Done implements Sink.
func (d *Distinct) Done(port int) {
	if d.MarkDone(port) {
		d.Close()
	}
}
