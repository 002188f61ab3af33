package sched

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
)

// Exec is a level-2 partition executor: one goroutine that drains a group
// of queues under a strategy, exactly like a small graph-threaded
// scheduler over its partition (paper §4.2.2). With a TS attached it
// cooperates on level 3, running only while it holds a run permit.
//
// Work discovery uses the dirty-unit protocol: every queue's notify
// callback marks its unit dirty (a CAS-guarded flag) and, on the false→
// true transition, pushes the unit's index onto the shared notify channel.
// The executor consumes indices, clears the flag, and feeds the strategy's
// incremental index via Update — so one queue event costs one O(log n)
// index fix instead of an O(n) rescan of every unit, and an idle executor
// learns exactly which unit woke it. The channel holds one slot per unit;
// the dedup flag guarantees at most one in-flight token per unit, so the
// producer-side send can never block.
type Exec struct {
	name    string
	units   []*Unit
	strat   Strategy
	batch   int
	scratch []stream.Element // reused by every DrainBatch; owned by run()
	quantum time.Duration
	ts      *TS
	proc    *Proc

	notify chan int
	dirty  []atomic.Bool
	// open counts non-closed units; run() exits when it reaches zero,
	// replacing the old O(n) all-closed rescan.
	open atomic.Int32

	// permit records whether the executor goroutine holds its TS run
	// permit: a wait for queue space gives it up mid-slice. pending is a
	// unit whose VO's frontier held output back in the last drain; it is
	// settled before anything else (see coop.go). Both are owned by the
	// executor goroutine.
	permit  bool
	pending *Unit

	launched atomic.Bool
	stop     chan struct{}
	done     chan struct{}

	// onFail receives the panic value if an operator blows up while this
	// executor drives it; the deployment fail-stops the whole graph.
	onFail func(error)

	processed atomic.Uint64
}

// newExec wires an executor over units. A nil ts disables level 3 (the
// executor runs whenever it has work, like plain OTS/GTS threads).
func newExec(name string, units []*Unit, strat Strategy, batch int, quantum time.Duration, ts *TS, onFail func(error)) *Exec {
	if batch < 1 {
		batch = 1
	}
	x := &Exec{
		name:    name,
		units:   units,
		strat:   strat,
		batch:   batch,
		scratch: make([]stream.Element, batch),
		quantum: quantum,
		ts:      ts,
		notify:  make(chan int, max(len(units), 1)),
		dirty:   make([]atomic.Bool, len(units)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		onFail:  onFail,
	}
	if ts != nil {
		x.proc = &Proc{Name: name}
	}
	for i, u := range units {
		if !u.closed {
			x.open.Add(1)
		}
		i := i
		u.Q.SetNotify(func() { x.markDirty(i) })
	}
	strat.Init(units)
	return x
}

// markDirty is the queues' notify callback: flag the unit and hand its
// index to the executor exactly once per consumption cycle.
func (x *Exec) markDirty(i int) {
	if !x.dirty[i].Load() && x.dirty[i].CompareAndSwap(false, true) {
		x.notify <- i
	}
}

// applyDirty consumes one dirty token. The flag is cleared before the
// gauges are read, so an event arriving in between re-flags the unit and
// is re-applied later rather than lost.
func (x *Exec) applyDirty(i int) {
	x.dirty[i].Store(false)
	x.strat.Update(i)
}

// drainNotify applies all pending dirty tokens without blocking.
func (x *Exec) drainNotify() {
	for {
		select {
		case i := <-x.notify:
			x.applyDirty(i)
		default:
			return
		}
	}
}

// closeUnit marks a unit finished, removes it from the strategy index and
// decrements the open counter. Idempotent; executor goroutine only.
func (x *Exec) closeUnit(i int) {
	u := x.units[i]
	if !u.closed {
		u.closed = true
		x.open.Add(-1)
		x.strat.Update(i)
	}
}

// Name returns the executor's name.
func (x *Exec) Name() string { return x.name }

// Proc returns the executor's level-3 process handle, or nil without a TS.
func (x *Exec) Proc() *Proc { return x.proc }

// Processed returns the number of elements this executor has drained.
func (x *Exec) Processed() uint64 { return x.processed.Load() }

// start launches the executor goroutine.
func (x *Exec) start() {
	x.launched.Store(true)
	go x.run()
}

// halt asks the executor to exit after its current batch and waits for it.
// An executor that was never started has no goroutine to collect.
func (x *Exec) halt() {
	select {
	case <-x.stop:
	default:
		close(x.stop)
	}
	if x.launched.Load() {
		<-x.done
	}
}

// wait blocks until the executor exits on its own (all units closed).
func (x *Exec) wait() { <-x.done }

func (x *Exec) run() {
	defer close(x.done)
	for {
		if x.open.Load() == 0 && x.pending == nil {
			return
		}
		select {
		case <-x.stop:
			return
		default:
		}
		if x.ts != nil {
			if !x.ts.Acquire(x.proc, x.stop) {
				return
			}
			x.permit = true
		}
		idle := x.runSlice()
		x.releasePermit()
		if idle {
			if x.open.Load() == 0 {
				return
			}
			if !x.waitWork() {
				return
			}
		}
	}
}

// runSlice drains units until the quantum expires, stop is requested, or
// no unit is ready; it reports whether it stopped for lack of work. Each
// drain is a VO entry, the one place the executor waits for queue space:
// while the frontier of the unit's VO holds back output of an earlier
// drain that does not fit, the slice ends with the permit released and
// the executor parked on the full queue (stop aborts the wait).
func (x *Exec) runSlice() bool {
	start := time.Now()
	for {
		select {
		case <-x.stop:
			return false
		default:
		}
		if u := x.pending; u != nil {
			_, _, full, err := x.enter(u, false)
			if full != nil {
				return x.waitSpace(full)
			}
			x.pending = nil
			if err != nil {
				if x.onFail != nil {
					x.onFail(err)
				}
				return false
			}
		}
		x.drainNotify()
		i := x.strat.Pick()
		if i < 0 {
			return true
		}
		n, open, full, err := x.enter(x.units[i], true)
		if full != nil {
			return x.waitSpace(full)
		}
		if err == nil && open {
			// Re-index the drained unit from its fresh gauges; closed
			// units are removed below instead.
			x.strat.Update(i)
		}
		x.processed.Add(uint64(n))
		if err != nil {
			// An operator downstream of this queue panicked. Contain it:
			// stop draining the poisoned partition and fail-stop the
			// deployment.
			x.closeUnit(i)
			if x.onFail != nil {
				x.onFail(err)
			}
			return false
		}
		if !open {
			x.closeUnit(i)
		}
		if x.quantum > 0 && time.Since(start) >= x.quantum {
			return false
		}
	}
}

// waitSpace parks the executor on a full frontier queue with its permit
// released, until the queue has room or stop closes; it ends the slice.
func (x *Exec) waitSpace(q *queue.Queue) bool {
	x.releasePermit()
	q.WaitSpace(x.stop)
	return false
}

// releasePermit gives the TS run permit back if the executor holds it.
func (x *Exec) releasePermit() {
	if x.permit {
		x.ts.Release(x.proc)
		x.permit = false
	}
}

// enter runs one entry into u's VO under the VO gate, with panic
// containment. It settles what the VO's frontier holds back; if an outlet
// there stays full it returns that outlet's queue. Otherwise, when drain
// is set, it runs one batch through the batched transfer path — up to
// batch elements copied out of u's queue under one lock acquisition into
// the executor's scratch slice and delivered downstream outside the queue
// lock — and notes u as pending if the frontier held output back. A gate
// holder never waits on anything but the CPU (coop.go), so the gate is
// awaited with the permit held.
func (x *Exec) enter(u *Unit, drain bool) (n int, open bool, full *queue.Queue, err error) {
	if u.Gate != nil {
		u.Gate.Lock()
		defer u.Gate.Unlock()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: operator panic in partition of %s: %v", u.Q.Name(), r)
		}
	}()
	if full = u.front.settle(); full != nil || !drain {
		return 0, true, full, nil
	}
	n, open = u.Q.DrainBatch(x.scratch, x.batch)
	if u.front.holding() {
		x.pending = u
	}
	return n, open, nil, nil
}

// waitWork blocks until some unit is ready or stop closes; it returns
// false on stop or when every unit has finished. It consumes the dirty-
// unit protocol: each wakeup names the unit that changed, so the cost of
// an idle-wake cycle is one index update, not a rescan of every unit.
func (x *Exec) waitWork() bool {
	for {
		if x.open.Load() == 0 {
			return false
		}
		if x.strat.Ready() {
			return true
		}
		select {
		case i := <-x.notify:
			x.applyDirty(i)
			x.drainNotify()
		case <-x.stop:
			return false
		}
	}
}
