// Safe-point parking: how bounded decoupling queues apply backpressure
// without ever stopping a thread inside an operator.
//
// A virtual operator (VO) is a fused subgraph whose operators call each
// other directly; queues sit only on the cut edges between VOs. The
// queues on the cut edges leaving a VO are its frontier. A thread enters
// a VO in two places only — a source goroutine handing a batch to its
// adapter (srcAdapter.enter), and an executor draining one of the VO's
// entry queues (Exec.enter) — and there no operator frame of the VO is on
// its stack. That is the one place a thread waits for queue space. Inside
// the fused chain an enqueue never parks: operators on a cut edge emit
// into the edge's outlet, which enqueues what fits under the bound and
// holds the rest back. The VO's next entry flushes it first
// (frontier.settle), and while an outlet stays full the thread parks in
// queue.WaitSpace on its queue until the consumer drains it.
// A source settles before it returns to its generator and an executor
// before it drains again, so held output is the producer's own short
// backlog, and a chain that emits more than it takes in — a join, or a
// Reorder flushing its buffer on end-of-stream — still meets the bound.
// An executor never waits on a queue it drains itself (it would wait for
// itself): it force-flushes that outlet, overshooting the bound
// (queue.Overshoot meters it), and its strategy drains the queue next.
//
// Because nobody is ever parked inside an operator, a live mutation
// (Deployment.mutate) that holds the world write lock knows that no
// operator loop is in progress: every executor has exited and every
// source is outside its VO. Edge lists, routing tables and shard state
// can be rewritten without a resumed loop seeing them change underneath.
//
// # Lock ordering
//
// A VO gate (a mutex in Deployment.gates, shared by every driver of a VO
// that has more than one) serializes entries. The acquisition order is
//
//	TS run permit  →  VO gate  →  queue mutex       (executors)
//	world RLock    →  VO gate  →  queue mutex       (sources)
//
// Executors take no world lock: mutate halts them all before it takes
// the write lock. On top of the order, one rule: no thread waits for
// queue space while holding the world read lock, a VO gate or a TS run
// permit; and gate holders never wait at all. The rule makes the system
// deadlock-free:
//
//   - A gate holder runs operators whose enqueues never block, so it
//     releases the gate after finite CPU work. Waiting on a gate — with a
//     permit or the read lock held — is therefore safe.
//   - The world write lock is taken by mutate only after it has halted
//     every executor. The remaining readers are sources inside an entry,
//     which wait on nothing but gates, so the lock is granted.
//   - A thread parked for space holds nothing. The queue it waits on is
//     drained by an executor of another group, which can get a permit
//     (parked executors released theirs, and the TS grants FIFO) and the
//     gate (by the first point). Waits follow the dataflow downstream,
//     and query graphs are acyclic, so the chain of waits ends at an
//     executor that can run — provided the executor groups are ordered
//     along the dataflow. They are when every VO has its own executor
//     (every plan but GTS that the engine builds) and under GTS, and
//     layout refuses a hand-written Plan.Groups that is not
//     (groupCycle).
//   - Every wait for space has a way out: an executor's aborts on its
//     stop channel, so halting never hangs; Stop poisons every queue, which
//     releases parked sources, and a source that finds the deployment
//     stopped enters without waiting (poisoned queues drop).
//
// Under GTS (Global Thread Scheduling) one executor drains every queue,
// so every outlet it fills is its own and it never waits; the sources
// wait on queues it drains. With one OS thread (GOMAXPROCS=1, `make bounded`) and
// one TS permit, a parked executor has released the permit and blocks in
// a channel receive, so the consumer gets both the permit and the thread.
package sched

import (
	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
)

// outlet is what a producer is subscribed to on a cut edge, in front of
// the edge's queue. It enqueues what fits under the bound and holds the
// rest back — with a Done that arrives behind it — for the producing VO's
// next driver to flush at VO entry (settle). So an enqueue inside a fused
// chain never parks and never overshoots; the held elements are the
// producer's own backlog, at most one entry's output. An outlet is
// touched only by its VO's drivers, which the VO gate serializes, and by
// mutate and Stop once every driver is out.
type outlet struct {
	q     *queue.Queue
	bound int // 0: unbounded, nothing is ever held
	held  []stream.Element
	done  bool // a Done waits behind held; implies held is not empty
	// credit is how many elements the queue is known to take before it
	// reaches the bound. The outlet is the queue's only producer and the
	// consumer only shortens it, so credit never overstates the room and
	// the queue length is read only when credit runs out.
	credit int
	// holds counts the producing VO's outlets that hold output back, so
	// an entry checks its whole frontier at once; shared with the VO's
	// frontier and replaced by every rebuild.
	holds *int
}

// room returns how many of n elements the queue takes before it reaches
// the bound.
func (o *outlet) room(n int) int {
	if o.bound == 0 {
		return n
	}
	if o.credit < n {
		o.credit = max(o.bound-o.q.Len(), 0)
	}
	return min(n, o.credit)
}

// put enqueues es, past the bound if it must.
func (o *outlet) put(es []stream.Element) {
	o.q.ProcessBatch(0, es)
	o.credit = max(o.credit-len(es), 0)
}

// ProcessBatch implements op.Sink.
func (o *outlet) ProcessBatch(_ int, es []stream.Element) {
	if len(o.held) == 0 {
		k := o.room(len(es))
		o.put(es[:k])
		if es = es[k:]; len(es) == 0 {
			return
		}
		*o.holds++
	}
	o.held = append(o.held, es...)
}

// Done implements op.Sink.
func (o *outlet) Done(int) {
	if len(o.held) > 0 {
		o.done = true
		return
	}
	o.q.Done(0)
}

// flush moves held elements into the queue as far as the bound allows —
// all of them when force, overshooting it — and then a held-back Done. It
// reports whether anything is still held.
func (o *outlet) flush(force bool) bool {
	k := len(o.held)
	if k == 0 {
		return false
	}
	if !force {
		k = o.room(k)
	}
	o.put(o.held[:k])
	if o.held = o.held[k:]; len(o.held) > 0 {
		return true
	}
	o.held = nil
	*o.holds--
	if o.done {
		o.done = false
		o.q.Done(0)
	}
	return false
}

// frontier is the set of outlets on the cut edges leaving a VO, as one
// driver of the VO sees it: the driver waits on the wait outlets and
// force-flushes the own ones, whose queues it drains itself. held is the
// VO's count of holding outlets (nil when queues are unbounded).
type frontier struct {
	wait, own []*outlet
	held      *int
}

// holding reports whether an outlet of the frontier holds output back.
func (f *frontier) holding() bool { return f.held != nil && *f.held > 0 }

// settle flushes what the frontier holds back, at VO entry. It returns a
// queue the driver must wait on before it enters — one whose outlet
// still holds output — or nil once nothing is held.
func (f *frontier) settle() *queue.Queue {
	if !f.holding() {
		return nil
	}
	for _, o := range f.own {
		o.flush(true)
	}
	var full *queue.Queue
	for _, o := range f.wait {
		if o.flush(false) && full == nil {
			full = o.q
		}
	}
	return full
}
