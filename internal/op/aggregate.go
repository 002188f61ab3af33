package op

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/dsms/hmts/internal/ring"
	"github.com/dsms/hmts/internal/stream"
)

// AggKind selects the aggregate function of a WindowAgg.
type AggKind int

// Supported aggregate functions.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL-ish name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// aggState is the incremental state of one group's aggregate.
type aggState struct {
	// win holds a ROWS window's elements, which evict per group. Time
	// windows keep their elements in WindowAgg.ring instead and leave it
	// empty.
	win   ring.Ring[stream.Element]
	count int64
	// For SUM and AVG, sum+comp totals the finite values only, as a
	// compensated (Neumaier) pair: comp carries the low-order bits the
	// running sum rounds away, so a large value leaving the window does
	// not take the small ones with it. nan, posInf and negInf count the
	// non-finite values, so SUM/AVG recover once a NaN or ±Inf leaves the
	// window (a running sum cannot subtract one back out).
	sum, comp           float64
	nan, posInf, negInf int64
	// deque holds a monotonic sequence of candidate values for min/max;
	// front is the current extremum. Standard sliding-window-extremum
	// structure: amortized O(1) per element. NaN never enters it.
	deque ring.Ring[float64]
}

// held is one time-window element in the arrival-order ring, with the
// group it counts in.
type held struct {
	e stream.Element
	g *aggState
}

// sweepMin is the number of groups a time window keeps, emptied or not,
// however few elements it holds.
const sweepMin = 64

// WindowAgg computes a sliding-window aggregate, optionally grouped, and
// emits the updated aggregate value on every input element (continuous
// semantics, as in PIPES). The paper's motivating example (§5.1.1) is an
// expensive aggregation downstream of a cheap unary chain.
//
// The window is either time-based (the last `window` nanoseconds of event
// time) or count-based (the last `rows` elements per group).
type WindowAgg struct {
	Base
	kind   AggKind
	window int64 // time window in ns; 0 for count windows
	rows   int   // count window size; 0 for time windows
	group  func(stream.Element) int64
	// groups holds every group's aggregate. A time window keeps the groups
	// it empties, with count 0, so a returning key allocates nothing; a
	// new key sweeps them out once the map holds more than twice as many
	// groups as the window holds elements, plus sweepMin (emptied groups
	// then outnumber live ones). After a sweep the map holds at most one
	// group per element, so each sweep is paid for by the new keys
	// inserted since the last one.
	groups map[int64]*aggState
	// ring holds a time window: every element once, in arrival order, with
	// its group. Event time is nondecreasing, so the head is always the
	// oldest element across all groups: expiry pops the head while it is
	// due — O(1) per arrival plus O(1) per expired element, whatever the
	// group count. ROWS windows evict per group and leave the ring empty.
	ring ring.Ring[held]
	// held counts elements across the window incrementally (add/remove
	// are the only mutation points); heldPub publishes it at processing
	// boundaries so RetainedRows can be read while an executor runs.
	held    int
	heldPub atomic.Int64
}

// NewWindowAgg returns a windowed aggregate of the given kind over a time
// window in nanoseconds. A nil group function aggregates the whole stream
// as one group. Event time must be nondecreasing.
func NewWindowAgg(name string, kind AggKind, window int64, group func(stream.Element) int64) *WindowAgg {
	if window <= 0 {
		panic("op: aggregate window must be positive")
	}
	a := newAgg(name, kind, group)
	a.window = window
	return a
}

// NewCountWindowAgg returns an aggregate over the last rows elements per
// group (a ROWS window). Groups persist for the stream's lifetime, so the
// state is bounded by rows × distinct groups.
func NewCountWindowAgg(name string, kind AggKind, rows int, group func(stream.Element) int64) *WindowAgg {
	if rows <= 0 {
		panic("op: aggregate ROWS window must be positive")
	}
	a := newAgg(name, kind, group)
	a.rows = rows
	return a
}

func newAgg(name string, kind AggKind, group func(stream.Element) int64) *WindowAgg {
	if group == nil {
		group = func(stream.Element) int64 { return 0 }
	}
	a := &WindowAgg{kind: kind, group: group, groups: make(map[int64]*aggState)}
	a.InitBase(name, 1)
	return a
}

// GroupCount returns the number of live groups: those holding elements.
// It walks the groups, so it is not for the hot path.
func (a *WindowAgg) GroupCount() int {
	n := 0
	for _, g := range a.groups {
		if g.count > 0 {
			n++
		}
	}
	return n
}

// WindowLen returns the total number of elements held across the window.
func (a *WindowAgg) WindowLen() int { return a.held }

// tally counts v into (d = 1) or out of (d = -1) the group's finite sum
// or its non-finite counts.
func (g *aggState) tally(v float64, d int64) {
	switch {
	case v-v == 0: // finite
		g.addFinite(float64(d) * v)
	case v != v:
		g.nan += d
	case v > 0:
		g.posInf += d
	default:
		g.negInf += d
	}
}

// addFinite adds the finite x to the compensated sum (Neumaier's variant
// of Kahan summation). Once finite values overflow the sum to ±Inf the
// compensation means nothing and is left alone; remove recomputes the sum
// when the overflow has left the window.
func (g *aggState) addFinite(x float64) {
	t := g.sum + x
	switch {
	case t-t != 0: // overflow
	case math.Abs(g.sum) >= math.Abs(x):
		g.comp += (g.sum - t) + x
	default:
		g.comp += (x - t) + g.sum
	}
	g.sum = t
}

// resum recomputes g's compensated sum from its window values. remove
// calls it when finite values overflowed the sum to ±Inf: the overflow
// cannot be subtracted back out, and the window may no longer overflow.
// A time window's values are g's entries in the shared ring.
func (a *WindowAgg) resum(g *aggState) {
	g.sum, g.comp = 0, 0
	g.win.Each(func(e stream.Element) { g.addFinite(e.Val) })
	a.ring.Each(func(h held) {
		if h.g == g {
			g.addFinite(h.e.Val)
		}
	})
}

func (a *WindowAgg) add(g *aggState, v float64) {
	a.held++
	g.count++
	switch {
	case a.kind == AggSum || a.kind == AggAvg: // only they read the sum
		g.tally(v, 1)
	case v != v: // NaN is not comparable: MIN/MAX ignore it
	case a.kind == AggMin:
		for g.deque.Len() > 0 && g.deque.Back() > v {
			g.deque.PopBack()
		}
		g.deque.Push(v)
	case a.kind == AggMax:
		for g.deque.Len() > 0 && g.deque.Back() < v {
			g.deque.PopBack()
		}
		g.deque.Push(v)
	}
}

// remove takes v, the value of g's oldest element, out of g's aggregate.
// The caller has already taken the element out of the ring or g.win.
func (a *WindowAgg) remove(g *aggState, v float64) {
	a.held--
	g.count--
	switch {
	case a.kind == AggSum || a.kind == AggAvg:
		g.tally(v, -1)
		if g.sum-g.sum != 0 && g.nan == 0 && g.posInf == 0 && g.negInf == 0 {
			a.resum(g) // every value left is finite, so all of them are summed
		}
	case (a.kind == AggMin || a.kind == AggMax) && g.deque.Len() > 0 && g.deque.Front() == v:
		g.deque.Pop()
	}
	if g.count == 0 {
		// An empty group stays in the map for reuse; it restarts its sum
		// from zero, not from the rounding its values left behind.
		g.sum, g.comp = 0, 0
	}
}

// expire removes every window element with TS <= deadline across all
// groups by popping the arrival-order ring.
func (a *WindowAgg) expire(deadline int64) {
	for a.ring.Len() > 0 && a.ring.Front().e.TS <= deadline {
		h := a.ring.Pop()
		a.remove(h.g, h.e.Val)
	}
}

// sweep drops the groups a time window has emptied.
func (a *WindowAgg) sweep() {
	for key, g := range a.groups {
		if g.count == 0 {
			delete(a.groups, key)
		}
	}
}

func (a *WindowAgg) result(g *aggState) float64 {
	switch a.kind {
	case AggCount:
		return float64(g.count)
	case AggSum:
		return g.total()
	case AggAvg:
		if g.count == 0 {
			return 0
		}
		return g.total() / float64(g.count)
	case AggMin, AggMax:
		if g.deque.Len() == 0 {
			if g.count > 0 { // every value in the window is NaN
				return math.NaN()
			}
			return 0
		}
		return g.deque.Front()
	}
	panic("op: unknown aggregate kind")
}

// total is the IEEE sum of the window's values: NaN if it holds a NaN or
// both infinities, the infinity if it holds one, else the compensated sum
// of the finite values (±Inf if they overflow).
func (g *aggState) total() float64 {
	switch {
	case g.nan > 0 || g.posInf > 0 && g.negInf > 0:
		return math.NaN()
	case g.posInf > 0:
		return math.Inf(1)
	case g.negInf > 0:
		return math.Inf(-1)
	case g.sum-g.sum != 0:
		return g.sum
	}
	return g.sum + g.comp
}

// step applies one element to the aggregate state and returns the updated
// aggregate to emit.
func (a *WindowAgg) step(e stream.Element) stream.Element {
	key := a.group(e)
	if a.rows == 0 {
		a.expire(e.TS - a.window)
	}
	g := a.groups[key]
	if g == nil {
		if len(a.groups) > 2*a.held+sweepMin {
			a.sweep()
		}
		g = new(aggState)
		a.groups[key] = g
	}
	a.add(g, e.Val)
	if a.rows == 0 {
		a.ring.Push(held{e: e, g: g})
	} else {
		// Count window: keep the newest rows elements of this group.
		g.win.Push(e)
		for g.win.Len() > a.rows {
			a.remove(g, g.win.Pop().Val)
		}
	}
	return stream.Element{TS: e.TS, Key: key, Val: a.result(g), Seq: e.Seq}
}

// ExportShardState implements ShardState: every element still held. A
// time window's ring is already in arrival (= Seq) order; a ROWS window's
// elements are grouped by key.
func (a *WindowAgg) ExportShardState() []PortedElement {
	pes := make([]PortedElement, 0, a.held)
	a.ring.Each(func(h held) { pes = append(pes, PortedElement{E: h.e}) })
	for _, g := range a.groups {
		g.win.Each(func(e stream.Element) { pes = append(pes, PortedElement{E: e}) })
	}
	return pes
}

// RetainedRows reports the elements currently held across group windows —
// the state a reshard would have to port. Unlike WindowLen it is safe to
// call while an executor is processing.
func (a *WindowAgg) RetainedRows() int { return int(a.heldPub.Load()) }

// ImportShardElement implements ShardState: replay one retained element,
// rebuilding window state without emitting.
func (a *WindowAgg) ImportShardElement(_ int, e stream.Element) {
	a.step(e)
	a.heldPub.Store(int64(a.held))
}

// ProcessBatch implements Sink. Expiry stays per element — the
// emitted aggregate value at each element's event time depends on it — but
// the ring makes it O(1) when nothing is due, and metering and downstream
// dispatch are hoisted out of the loop: one stats update and one fan-out
// per batch.
func (a *WindowAgg) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	a.BeginWorkBatch(es)
	out := a.scratch(len(es))
	for _, e := range es {
		out = append(out, a.step(e))
	}
	a.heldPub.Store(int64(a.held))
	a.flush(out)
	a.EndWorkBatch()
}

// Done implements Sink.
func (a *WindowAgg) Done(port int) {
	if a.MarkDone(port) {
		a.Close()
	}
}
