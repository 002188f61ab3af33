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
	Name() string
	// Init gives the strategy its unit set and builds the initial index;
	// the executor calls it once before any Pick.
	Init(units []*Unit)
	// Update re-indexes unit i after its queue gauges changed.
	Update(i int)
	// Pick returns the index of a ready unit, or -1 if none is.
	Pick() int
	// Ready reports whether Pick would return a unit. Unlike Pick it
	// never advances strategy state (the round-robin rotor), so the
	// executor's idle wait can probe it safely.
	Ready() bool
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

// Name implements Strategy.
func (*FIFO) Name() string { return "fifo" }

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

// Ready implements Strategy.
func (f *FIFO) Ready() bool { return f.h.size() > 0 }

// RoundRobin cycles through ready units, giving each an equal share of
// drain batches.
//
// Index: a readiness bitset scanned circularly from the last pick — the
// ready ring. A full rotation touches every 64-unit word once, so a pick
// is O(units/64) worst case and O(1) when the next ready unit is nearby.
type RoundRobin struct {
	units []*Unit
	ready bitset
	last  int
}

// Name implements Strategy.
func (*RoundRobin) Name() string { return "roundrobin" }

// Init implements Strategy.
func (r *RoundRobin) Init(units []*Unit) {
	r.units = units
	r.ready.initSet(len(units))
	r.last = 0
	for i := range units {
		r.Update(i)
	}
}

// Update implements Strategy.
func (r *RoundRobin) Update(i int) {
	if ready, _, _ := gaugesOf(r.units[i]); ready {
		r.ready.set(i)
	} else {
		r.ready.clear(i)
	}
}

// Pick implements Strategy.
func (r *RoundRobin) Pick() int {
	i := r.ready.nextAfter(r.last)
	if i >= 0 {
		r.last = i
	}
	return i
}

// Ready implements Strategy.
func (r *RoundRobin) Ready() bool { return r.ready.count > 0 }

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

// Name implements Strategy.
func (*Chain) Name() string { return "chain" }

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

// Ready implements Strategy.
func (c *Chain) Ready() bool { return c.doneSet.count > 0 || c.active.count > 0 }

// MaxQueue drains the longest ready queue first — a simple
// backlog-oriented baseline used by the ablation benches.
//
// Index: a lazily refreshed max-heap on the cached queue length. Producer
// enqueues grow queues behind the executor's back, so a cached length is
// always a lower bound; rather than re-reading every gauge per decision,
// the heap absorbs growth lazily — each enqueue batch marks its unit dirty
// and the executor folds the pending updates in at the next pick boundary,
// one O(log n) fix per changed unit. The residual staleness window is the
// single in-flight pick, where a lower bound can only under-prioritize a
// queue by the elements that arrived inside that window.
type MaxQueue struct {
	units []*Unit
	key   []int // cached length
	h     unitHeap
}

// Name implements Strategy.
func (*MaxQueue) Name() string { return "maxqueue" }

// Init implements Strategy.
func (m *MaxQueue) Init(units []*Unit) {
	m.units = units
	m.key = make([]int, len(units))
	m.h.initHeap(len(units), func(a, b int) bool {
		if m.key[a] != m.key[b] {
			return m.key[a] > m.key[b]
		}
		return a < b
	})
	for i := range units {
		m.Update(i)
	}
}

// Update implements Strategy.
func (m *MaxQueue) Update(i int) {
	ready, _, n := gaugesOf(m.units[i])
	if !ready {
		m.h.remove(i)
		return
	}
	m.key[i] = n
	m.h.fix(i)
}

// Pick implements Strategy.
func (m *MaxQueue) Pick() int { return m.h.top() }

// Ready implements Strategy.
func (m *MaxQueue) Ready() bool { return m.h.size() > 0 }

// strategies builds each level-2 strategy by name; the empty name is FIFO.
var strategies = map[string]func() Strategy{
	"":           func() Strategy { return &FIFO{} },
	"fifo":       func() Strategy { return &FIFO{} },
	"roundrobin": func() Strategy { return &RoundRobin{} },
	"chain":      func() Strategy { return &Chain{} },
	"maxqueue":   func() Strategy { return &MaxQueue{} },
}

// CheckStrategy returns an error unless NewStrategy knows the name.
func CheckStrategy(name string) error {
	if strategies[name] == nil {
		return fmt.Errorf("sched: unknown strategy %q", name)
	}
	return nil
}

// NewStrategy returns a fresh strategy instance by name ("fifo",
// "roundrobin", "chain", "maxqueue"); it panics on unknown names, which
// Build and Reconfigure reject up front (CheckStrategy). Strategies carry
// per-executor index state, so each executor needs its own.
func NewStrategy(name string) Strategy {
	if mk := strategies[name]; mk != nil {
		return mk()
	}
	panic("sched: unknown strategy " + name)
}
