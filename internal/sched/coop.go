// Cooperative blocking: the machinery that makes bounded decoupling
// queues safe under every configuration of the three-level scheduler.
//
// The hazard (ROADMAP's bounded-queue deadlock): an executor that blocks
// pushing into a full downstream queue used to keep both its level-3 TS
// run permit and the deployment's world read lock while parked. With the
// permit held, the consumer partition that would free the space starves
// in TS.Acquire (fatal at MaxConcurrent=1, the GOMAXPROCS=1 repro); with
// the read lock held, Reconfigure's world write lock can never be taken.
//
// The fix is a per-queue queue.WaitHook wired at deploy time to the
// queue's producing side. Before a producer parks on q.space the hook
// releases exactly what the rest of the engine needs to make progress,
// and reacquires it after the park.
//
// # Lock ordering
//
// The engine's documented — and, on the yield paths, assertion-enforced —
// acquisition order is
//
//	world RLock  →  VO gate  →  TS run permit  →  queue mutex
//
// with one invariant on top: a thread must never WAIT (park on a full
// queue, or block on a VO gate) while holding a TS run permit — it
// releases the permit first and reacquires it afterwards. Reacquisition
// respects the same order: the world read lock is retaken first, then the
// permit (honoring stop, so a halting deployment can always collect its
// executors), and only then the queue mutex. Reconfigure takes the world
// write lock only after halting every executor, so a reader waiting for a
// permit can always be unwound through its stop channel first; that is
// what makes the mixed wait-for graph acyclic.
//
// Waiting while holding a VO gate is permitted (the gate serializes entry
// into one partition and nothing the consumer side needs is behind it) —
// which is why executors must not block *on* a gate while holding a
// permit either: the holder may be parked on backpressure for a while.
// For the same reason no thread may block on a gate while holding the
// world read lock: the holder's park is wakeable only by a consumer or by
// poison, and a pending Reconfigure — which has already halted every
// consumer — would wedge behind the waiter's read lock forever. Executors
// satisfy this structurally: their gate waits select on stop, and
// Reconfigure halts them before taking the write lock. Source goroutines
// have no stop channel, so they yield the read lock around a contended
// gate (srcAdapter.lockTarget) and retake it afterwards — the one place
// the order inverts (gate, then read lock), safe because the only world
// writer never acquires gates; a rewire detected across the wait
// (Deployment.wireGen) drops the stale gate and re-resolves the target.
package sched

import (
	"bytes"
	"runtime"
	"strconv"

	"github.com/dsms/hmts/internal/queue"
)

// goid returns the calling goroutine's id. It is used only on slow paths
// (parking on a full queue) to discriminate which thread is pushing
// through a partition: the partition's executor, a fused source, or a
// live mutation. The textual parse is the only portable way to get the
// id; at ~1µs it is noise next to an actual park.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	// "goroutine 123 [running]:"
	b := buf[:n]
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[i+1:]
	}
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// Gate serializes entry into a virtual operator that can have more than
// one driver (fused sources, an executor draining entry queues). It is a
// channel-based mutex rather than sync.Mutex so an executor can wait for
// it cooperatively — selecting against its stop signal and releasing its
// TS run permit first, since the holder may itself be parked on
// downstream backpressure for an arbitrary time.
type Gate struct {
	ch chan struct{}
}

// NewGate returns an unlocked gate.
func NewGate() *Gate { return &Gate{ch: make(chan struct{}, 1)} }

// Lock acquires the gate, blocking until it is free. Callers must not
// hold the world read lock or a TS permit across the wait: source threads
// reach this only through srcAdapter.lockTarget, which yields the read
// lock first (the holder may be parked on backpressure, wakeable only by
// a consumer that a pending Reconfigure has already halted).
func (g *Gate) Lock() { g.ch <- struct{}{} }

// TryLock acquires the gate only if it is free.
func (g *Gate) TryLock() bool {
	select {
	case g.ch <- struct{}{}:
		return true
	default:
		return false
	}
}

// lockOrStop acquires the gate unless stop closes first; it reports
// whether the gate was acquired.
func (g *Gate) lockOrStop(stop <-chan struct{}) bool {
	select {
	case g.ch <- struct{}{}:
		return true
	case <-stop:
		return false
	}
}

// Unlock releases the gate.
func (g *Gate) Unlock() {
	select {
	case <-g.ch:
	default:
		panic("sched: unlock of unlocked gate")
	}
}

// pushHook is the queue.WaitHook installed on every decoupling queue; one
// instance per queue, bound to the queue's producing side. Yield releases
// whatever the calling thread holds that the rest of the engine needs to
// free space in the queue, Resume reacquires it in the documented order.
type pushHook struct {
	d *Deployment
	// x is the executor of the group that drains the producing partition,
	// nil when only source goroutines push into the queue.
	x *Exec
}

// Yield implements queue.WaitHook.
func (h *pushHook) Yield(q *queue.Queue) (bool, <-chan struct{}) {
	g := goid()
	if h.d.spliceGid.Load() == g {
		// A live mutation is draining a retired queue on the admin
		// goroutine while every executor is halted; nobody can free space,
		// so the push must overshoot rather than park.
		return false, nil
	}
	if h.x != nil && h.x.gid.Load() == g {
		return h.x.yieldFor(q)
	}
	// A source goroutine (a direct source producer, or a source fused
	// into the producing partition) is pushing: it holds one world read
	// lock — via srcAdapter — and no TS permit. Yield the read lock so a
	// Reconfigure can splice past the full queue; the park is woken by
	// space, poison, or nothing else (sources are stopped via poison).
	h.d.world.RUnlock()
	return true, nil
}

// Resume implements queue.WaitHook.
func (h *pushHook) Resume(q *queue.Queue, aborted bool) {
	if h.x != nil && h.x.gid.Load() == goid() {
		h.x.resumeFor(q, aborted)
		return
	}
	h.d.world.RLock()
}
