package sched

import (
	"fmt"
	"math"
	"sort"
)

// Strategy selects which of an executor's units to drain next — the
// pluggable level-2 policy of the architecture (paper §4.2.2: "it is
// possible to choose arbitrary strategies on the second level"). Since the
// ready-index rework, strategies are incremental: the executor hands them
// the unit set once (Init), then reports every unit whose queue gauges
// changed (Update — a producer enqueue, an input close, or the executor's
// own drain), and Pick answers from the maintained index in O(1)–O(log n)
// instead of rescanning all units under their queue locks. Update reads
// only the queue's lock-free gauges, so one queue event costs O(log n)
// with no lock acquisitions on the decision path.
//
// Index invariant: after Update(i) has been applied for every pending
// gauge change, the index holds exactly the ready units (non-closed, with
// buffered elements or a pending Done). Readiness can only be overstated
// transiently by events the executor has not consumed yet — never
// understated — and only the owning executor shrinks a queue, so a unit
// the index reports ready is guaranteed to make progress when drained.
//
// The executor then drains up to Options.Batch elements from the picked
// queue in one batched transfer, so one Pick decision is amortized over
// the whole batch. Strategies are owned by a single executor and need no
// internal locking.
type Strategy interface {
	// Init gives the strategy its unit set and builds the initial index;
	// the executor calls it once before any Pick.
	Init(units []*Unit)
	// Update re-indexes unit i after its queue gauges changed.
	Update(i int)
	// Pick returns the index of a ready unit, or -1 if none is. It
	// changes no strategy state: calling it twice with no Update in
	// between returns the same unit, so the executor's idle wait can
	// probe readiness with Pick() >= 0.
	Pick() int
}

// gaugesOf snapshots the scheduling-relevant state of a unit from its
// queue's published gauges: readiness, front event-TS (MinInt64 when the
// queue is empty with a pending Done — such units sort before any real
// element and are drained first, which is free and unblocks downstream
// completion), and length.
func gaugesOf(u *Unit) (ready bool, frontTS int64, n int) {
	if u.closed {
		return false, 0, 0
	}
	ts, n, inClosed, outClosed := u.Q.Gauges()
	switch {
	case n > 0:
		return true, ts, n
	case inClosed && !outClosed:
		return true, math.MinInt64, 0
	}
	return false, 0, 0
}

// FIFO processes elements in global arrival order: it picks the ready unit
// whose oldest buffered element has the smallest event timestamp. FIFO
// maximizes early results at the price of memory (paper §6.6). Because the
// executor drains a whole batch from the picked queue, global order is
// approximated at batch granularity — elements beyond the first of a batch
// may be younger than another queue's front; shrink Options.Batch to
// tighten the interleaving (1 restores exact global arrival order).
//
// Index: a min-heap on the cached front timestamp. The cache cannot go
// stale undetected — the front changes only when the owning executor
// drains the queue (it calls Update itself) or when a producer makes an
// empty queue non-empty (the dirty-unit protocol delivers an Update before
// the executor blocks or picks).
type FIFO struct {
	units []*Unit
	key   []int64 // cached front TS; MinInt64 flags a pending Done
	h     unitHeap
}

// Init implements Strategy.
func (f *FIFO) Init(units []*Unit) {
	f.units = units
	f.key = make([]int64, len(units))
	f.h.initHeap(len(units), func(a, b int) bool {
		if f.key[a] != f.key[b] {
			return f.key[a] < f.key[b]
		}
		return a < b
	})
	for i := range units {
		f.Update(i)
	}
}

// Update implements Strategy.
func (f *FIFO) Update(i int) {
	ready, ts, _ := gaugesOf(f.units[i])
	if !ready {
		f.h.remove(i)
		return
	}
	f.key[i] = ts
	f.h.fix(i)
}

// Pick implements Strategy.
func (f *FIFO) Pick() int { return f.h.top() }

// Chain is the memory-minimizing strategy of Babcock et al. (SIGMOD 2003):
// among ready units it favors the one whose operator lies on the
// lower-envelope segment with the steepest descent (fastest memory
// release), breaking ties toward operators earlier in the chain and then
// toward older elements. The per-unit steepness is computed at deployment
// from the progress charts of the query graph.
//
// Index: units are bucketed at Init by their static (steepness, SegPos)
// class, buckets sorted steepest-first; each bucket keeps a min-heap on
// the cached front timestamp and a bitset tracks the non-empty buckets, so
// a pick is "steepest active bucket, oldest front" in O(buckets/64 +
// log bucketsize). Units with a pending Done are kept in a separate set
// and picked before any bucket — propagating a final Done is free and
// unblocks downstream completion regardless of steepness.
type Chain struct {
	units    []*Unit
	bucketOf []int   // unit -> bucket index (static)
	key      []int64 // cached front TS
	buckets  []unitHeap
	active   bitset // buckets with at least one ready unit
	doneSet  bitset // ready units with a pending Done (empty queue)
}

// Init implements Strategy.
func (c *Chain) Init(units []*Unit) {
	c.units = units
	c.key = make([]int64, len(units))
	c.bucketOf = make([]int, len(units))
	// Sort the distinct (steepness desc, segpos asc) classes into buckets.
	type class struct {
		steep float64
		pos   int
	}
	classes := make([]class, 0, len(units))
	seen := make(map[class]int)
	for _, u := range units {
		cl := class{u.Steepness, u.SegPos}
		if _, ok := seen[cl]; !ok {
			seen[cl] = 0
			classes = append(classes, cl)
		}
	}
	sort.Slice(classes, func(i, j int) bool {
		if classes[i].steep != classes[j].steep {
			return classes[i].steep > classes[j].steep
		}
		return classes[i].pos < classes[j].pos
	})
	for bi, cl := range classes {
		seen[cl] = bi
	}
	for i, u := range units {
		c.bucketOf[i] = seen[class{u.Steepness, u.SegPos}]
	}
	c.buckets = make([]unitHeap, len(classes))
	for bi := range c.buckets {
		c.buckets[bi].initHeap(len(units), func(a, b int) bool {
			if c.key[a] != c.key[b] {
				return c.key[a] < c.key[b]
			}
			return a < b
		})
	}
	c.active.initSet(len(classes))
	c.doneSet.initSet(len(units))
	for i := range units {
		c.Update(i)
	}
}

// Update implements Strategy.
func (c *Chain) Update(i int) {
	ready, ts, n := gaugesOf(c.units[i])
	b := &c.buckets[c.bucketOf[i]]
	switch {
	case !ready:
		c.doneSet.clear(i)
		b.remove(i)
	case n == 0: // pending Done
		c.doneSet.set(i)
		b.remove(i)
	default:
		c.doneSet.clear(i)
		c.key[i] = ts
		b.fix(i)
	}
	if b.size() == 0 {
		c.active.clear(c.bucketOf[i])
	} else {
		c.active.set(c.bucketOf[i])
	}
}

// Pick implements Strategy.
func (c *Chain) Pick() int {
	if i := c.doneSet.first(); i >= 0 {
		return i
	}
	bi := c.active.first()
	if bi < 0 {
		return -1
	}
	return c.buckets[bi].top()
}

// strategies builds each level-2 strategy by name; the empty name is FIFO.
var strategies = map[string]func() Strategy{
	"":      func() Strategy { return &FIFO{} },
	"fifo":  func() Strategy { return &FIFO{} },
	"chain": func() Strategy { return &Chain{} },
}

// CheckStrategy returns an error unless NewStrategy knows the name.
func CheckStrategy(name string) error {
	if strategies[name] == nil {
		return fmt.Errorf("sched: unknown strategy %q", name)
	}
	return nil
}

// NewStrategy returns a fresh strategy instance by name ("fifo" or
// "chain"); it panics on unknown names, which
// Build and Reconfigure reject up front (CheckStrategy). Strategies carry
// per-executor index state, so each executor needs its own.
func NewStrategy(name string) Strategy {
	if mk := strategies[name]; mk != nil {
		return mk()
	}
	panic("sched: unknown strategy " + name)
}
