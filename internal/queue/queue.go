// Package queue implements the decoupling queue of the paper, modeled — as
// in §2.4 — as an operator in its own right. A queue placed on an edge ends
// direct interoperability there: upstream operators enqueue and return
// immediately, and a scheduler later drains the queue into the downstream
// subgraph. Queues have no semantic effect; they exist purely so that
// threads can be assigned to the subgraphs between them.
package queue

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stats"
	"github.com/dsms/hmts/internal/stream"
)

// Queue is a FIFO buffer between graph partitions. The upstream side is an
// op.Sink (ProcessBatch/Done, safe for concurrent producers). The
// downstream side is drained in batches by exactly one scheduler at a time
// via DrainBatch, which pushes dequeued elements into the subscribed sinks
// using DI.
//
// A bound of 0 means unbounded. A positive bound is soft: ProcessBatch
// never blocks, and a producer that respects the bound calls WaitSpace
// before it starts work that may enqueue (see WaitSpace).
type Queue struct {
	name string
	st   *stats.OpStats

	mu        sync.Mutex
	buf       []stream.Element
	head, n   int
	bound     int
	producers int
	doneProds int
	outClosed bool
	space     chan struct{} // closed+replaced when room appears (bounded only)

	subs   []sub
	notify func()
	poison chan struct{}

	// Gauges: the queue state strategies and samplers consult, published
	// atomically inside the locked mutation sections so that readers
	// (Gauges, Len, InputClosed, Closed) never touch mu. The
	// seqlock pairs frontTS with the length so a reader cannot observe a
	// front timestamp from a different occupancy state: writers bump gSeq
	// to odd, store the fields, and bump it back to even; readers retry
	// while the sequence is odd or changed underneath them.
	gSeq     atomic.Uint64
	gFrontTS atomic.Int64
	gLen     atomic.Int64
	gFlags   atomic.Uint32

	enq, deq  atomic.Uint64
	maxLen    atomic.Int64
	dropped   atomic.Uint64
	overshoot atomic.Uint64

	// Backpressure stall counters: how often a producer parked on a full
	// queue in WaitSpace and the cumulative nanoseconds spent parked. They
	// make stalls visible to metrics consumers and the adapt estimators
	// instead of silent.
	fullBlocks atomic.Uint64
	blockedNS  atomic.Int64
}

// Gauge flag bits.
const (
	gInClosed  = 1 << iota // every producer has signaled Done
	gOutClosed             // buffer drained and Done propagated downstream
)

type sub struct {
	sink op.Sink
	port int
}

// New returns a queue with the given bound (0 = unbounded) expecting Done
// from one producer; use SetProducers for merged inputs.
func New(name string, bound int) *Queue {
	if bound < 0 {
		panic("queue: negative bound")
	}
	return &Queue{
		name:      name,
		st:        stats.NewOpStats(),
		bound:     bound,
		producers: 1,
		space:     make(chan struct{}),
		poison:    make(chan struct{}),
		buf:       make([]stream.Element, 16),
	}
}

// Poison aborts the queue for shutdown: producers parked in WaitSpace
// are released and every later enqueue is dropped. It is idempotent and
// used by Deployment.Stop so that teardown can never deadlock behind
// backpressure.
func (q *Queue) Poison() {
	q.mu.Lock()
	select {
	case <-q.poison:
	default:
		close(q.poison)
	}
	q.mu.Unlock()
}

// Dropped returns how many elements were discarded due to poisoning.
func (q *Queue) Dropped() uint64 { return q.dropped.Load() }

// FullBlocks returns how many times a producer parked on this queue full.
func (q *Queue) FullBlocks() uint64 { return q.fullBlocks.Load() }

// BlockedNS returns the cumulative nanoseconds producers spent parked on
// this queue full.
func (q *Queue) BlockedNS() int64 { return q.blockedNS.Load() }

// Overshoot returns how many elements were enqueued past the bound: by a
// producer that does not wait for space — one that drains the queue
// itself, or a teardown path that must not wait. It is the observable
// measure of how soft the bound has been in practice; FullBlocks and
// BlockedNS count only actual waits.
func (q *Queue) Overshoot() uint64 { return q.overshoot.Load() }

// WaitSpace parks the caller while the queue is full: it returns once the
// length drops below the bound, the queue is poisoned, or abort (may be
// nil) fires. It returns at once on an unbounded, non-full or poisoned
// queue. A wait is metered in FullBlocks and BlockedNS. The caller must
// hold nothing another thread needs to drain the queue.
func (q *Queue) WaitSpace(abort <-chan struct{}) {
	if q.bound == 0 || q.Len() < q.bound {
		return // the common case, read from the lock-free gauge
	}
	q.mu.Lock()
	if q.n < q.bound {
		q.mu.Unlock()
		return
	}
	select {
	case <-q.poison:
		q.mu.Unlock()
		return
	default:
	}
	space := q.space
	q.mu.Unlock()
	q.fullBlocks.Add(1)
	t0 := time.Now()
	select {
	case <-space:
	case <-q.poison:
	case <-abort:
	}
	q.blockedNS.Add(int64(time.Since(t0)))
}

// Name returns the queue's display name.
func (q *Queue) Name() string { return q.name }

// Stats returns the queue's runtime statistics; its interarrival estimate
// is the input rate of the partition the queue feeds.
func (q *Queue) Stats() *stats.OpStats { return q.st }

// Ins implements op.Operator; data ports are collapsed, so this is 1.
func (q *Queue) Ins() int { return 1 }

// SetProducers declares how many producers will call Done before the
// queue's input counts as closed. Call before processing starts.
func (q *Queue) SetProducers(n int) {
	if n < 1 {
		panic("queue: need at least one producer")
	}
	q.mu.Lock()
	q.producers = n
	q.publishLocked()
	q.mu.Unlock()
}

// Subscribe attaches a downstream sink; DrainBatch delivers into it, so a
// drained burst enters the downstream DI chain in one call.
func (q *Queue) Subscribe(s op.Sink, port int) {
	q.subs = append(q.subs, sub{sink: s, port: port})
}

// Unsubscribe detaches a previously subscribed edge.
func (q *Queue) Unsubscribe(s op.Sink, port int) {
	for i, e := range q.subs {
		if e.sink == s && e.port == port {
			q.subs = append(q.subs[:i], q.subs[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("queue: Unsubscribe of unknown edge from %q", q.name))
}

// SetNotify registers a callback invoked (outside the queue lock) after
// every mutation a scheduler could care about: an enqueue — including into
// a non-empty queue, so length-ordered strategies stay fresh — and the
// input closing. The executor owning this queue's partition installs a
// closure that marks the unit dirty and wakes the executor; because the
// callback identifies the queue, a shared wake channel no longer needs an
// anonymous ping per event. Passing nil unregisters. The gauges are always
// published before the callback fires, so a consumer that reads them in
// response to a notification observes at least the notifying event.
func (q *Queue) SetNotify(fn func()) {
	q.mu.Lock()
	q.notify = fn
	q.mu.Unlock()
}

// ping invokes a notify callback snapshot taken under mu.
func (q *Queue) ping(fn func()) {
	if fn != nil {
		fn()
	}
}

// publishLocked refreshes the atomic gauges from the buffer state. Caller
// holds mu; the seqlock makes the multi-word update appear atomic to the
// lock-free readers.
func (q *Queue) publishLocked() {
	var ts int64
	if q.n > 0 {
		ts = q.buf[q.head].TS
	}
	var flags uint32
	if q.doneProds >= q.producers {
		flags |= gInClosed
	}
	if q.outClosed {
		flags |= gOutClosed
	}
	q.gSeq.Add(1) // odd: readers hold off
	q.gFrontTS.Store(ts)
	q.gLen.Store(int64(q.n))
	q.gFlags.Store(flags)
	q.gSeq.Add(1) // even: stable again
}

// loadGauges returns a coherent (frontTS, length, flags) snapshot without
// taking mu. frontTS is meaningful only when n > 0.
func (q *Queue) loadGauges() (ts int64, n int, flags uint32) {
	for {
		s := q.gSeq.Load()
		if s&1 == 0 {
			ts = q.gFrontTS.Load()
			n = int(q.gLen.Load())
			flags = q.gFlags.Load()
			if q.gSeq.Load() == s {
				return ts, n, flags
			}
		}
		// A writer is mid-publish; writers hold mu for a handful of
		// instructions, so yield rather than burn the (possibly single)
		// CPU it needs to finish.
		runtime.Gosched()
	}
}

// Len returns the number of buffered elements; it is the gauge the memory
// sampler reads for Figure 9. Lock-free.
func (q *Queue) Len() int { return int(q.gLen.Load()) }

// Gauges returns one coherent lock-free snapshot of everything a
// scheduling strategy consults: the front element's event timestamp
// (meaningful only when n > 0), the buffered length, and the input/output
// closed flags, in one seqlock round. FIFO strategies use the front
// timestamp to process elements in global arrival order.
func (q *Queue) Gauges() (frontTS int64, n int, inClosed, outClosed bool) {
	ts, n, flags := q.loadGauges()
	return ts, n, flags&gInClosed != 0, flags&gOutClosed != 0
}

// MaxLen returns the high-water mark of the buffer.
func (q *Queue) MaxLen() int { return int(q.maxLen.Load()) }

// Enqueued returns the total number of elements ever enqueued.
func (q *Queue) Enqueued() uint64 { return q.enq.Load() }

// Dequeued returns the total number of elements ever dequeued.
func (q *Queue) Dequeued() uint64 { return q.deq.Load() }

// InputClosed reports whether every producer has signaled Done. Lock-free.
func (q *Queue) InputClosed() bool {
	return q.gFlags.Load()&gInClosed != 0
}

// Closed reports whether the queue is fully finished: input closed, buffer
// drained, and Done propagated downstream. Lock-free.
func (q *Queue) Closed() bool {
	return q.gFlags.Load()&gOutClosed != 0
}

// ProcessBatch implements op.Sink: it enqueues the whole burst under one
// lock acquisition and coalesces the drainer wakeup into at most one
// signal. It never blocks: elements past the bound are enqueued too and
// counted in Overshoot (backpressure is WaitSpace's job, taken before the
// work that produced the burst). On a poisoned queue the burst is dropped
// and counted in Dropped. Element order within the batch is preserved.
// Enqueueing after all producers signaled Done panics — that is always an
// engine bug.
func (q *Queue) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	q.mu.Lock()
	select {
	case <-q.poison:
		q.mu.Unlock()
		q.dropped.Add(uint64(len(es)))
		return
	default:
	}
	if q.doneProds >= q.producers {
		q.mu.Unlock()
		panic(fmt.Sprintf("queue: enqueue into closed queue %q", q.name))
	}
	if over := q.n + len(es) - q.bound; q.bound > 0 && over > 0 {
		q.overshoot.Add(uint64(min(over, len(es))))
	}
	wasEmpty := q.n == 0
	for _, e := range es {
		q.push(e)
	}
	if int64(q.n) > q.maxLen.Load() {
		q.maxLen.Store(int64(q.n))
	}
	if wasEmpty {
		q.publishLocked()
	} else {
		// Appending behind a non-empty buffer leaves the front element
		// and the flags as they were, so every (frontTS, length) pair a
		// reader can pick up is a real state: the length alone is
		// published, without the seqlock round that would bounce the
		// gauge lines against the drainer for each push.
		q.gLen.Store(int64(q.n))
	}
	notify := q.notify
	q.mu.Unlock()

	q.enq.Add(uint64(len(es)))
	q.st.RecordInBatch(es[0].TS, es[len(es)-1].TS, len(es))
	q.ping(notify)
}

// Done implements op.Sink: it counts producer end-of-stream signals. The
// downstream Done is not sent here — it is sent by the draining scheduler
// once the buffer is empty, preserving element/EOS ordering.
func (q *Queue) Done(int) {
	q.mu.Lock()
	q.doneProds++
	q.publishLocked()
	var notify func()
	if q.doneProds >= q.producers {
		notify = q.notify
	}
	q.mu.Unlock()
	q.ping(notify)
}

// push appends to the ring buffer, growing it as needed. Caller holds mu.
func (q *Queue) push(e stream.Element) {
	if q.n == len(q.buf) {
		bigger := make([]stream.Element, 2*len(q.buf))
		m := copy(bigger, q.buf[q.head:])
		copy(bigger[m:], q.buf[:q.head])
		q.buf = bigger
		q.head = 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = e
	q.n++
}

// DrainBatch dequeues up to max elements (bounded also by len(scratch))
// with a single lock acquisition: the elements are copied out of the ring
// into the caller-owned scratch slice under the lock, and delivered to the
// subscribers outside it. The space-channel backpressure wakeup is
// coalesced into one signal per batch, and the queue's output counter is
// bumped once via the bulk stats path. It reports how many elements were
// delivered and whether the queue can still yield work in the future
// (open == false exactly once the queue has closed downstream); when the
// batch empties the buffer with the input already closed, the final Done
// is propagated immediately and open is false. Called on an empty queue
// whose input has closed, it only propagates that Done.
//
// Scratch ownership: the slice is only written between the call and the
// return; the queue keeps no reference to it, so the caller may reuse it
// for every call. Only one goroutine may call DrainBatch at a time; that
// is the scheduler owning this queue's partition.
func (q *Queue) DrainBatch(scratch []stream.Element, max int) (n int, open bool) {
	if max <= 0 {
		max = 1
	}
	if max > len(scratch) {
		max = len(scratch)
	}
	q.mu.Lock()
	if q.n == 0 || max == 0 {
		if q.n == 0 && q.doneProds >= q.producers && !q.outClosed {
			q.outClosed = true
			q.publishLocked()
			q.mu.Unlock()
			for _, s := range q.subs {
				s.sink.Done(s.port)
			}
			return 0, false
		}
		closed := q.outClosed
		q.mu.Unlock()
		return 0, !closed
	}
	take := max
	if take > q.n {
		take = q.n
	}
	// Copy out of the ring in at most two contiguous chunks, clearing the
	// vacated slots so the buffer does not pin payloads.
	first := len(q.buf) - q.head
	if first > take {
		first = take
	}
	copy(scratch, q.buf[q.head:q.head+first])
	copy(scratch[first:take], q.buf[:take-first])
	clear(q.buf[q.head : q.head+first])
	clear(q.buf[:take-first])
	wasFull := q.bound > 0 && q.n >= q.bound
	q.head = (q.head + take) % len(q.buf)
	q.n -= take
	var space chan struct{}
	if wasFull && q.n < q.bound {
		space = q.space
		q.space = make(chan struct{})
	}
	closing := q.n == 0 && q.doneProds >= q.producers && !q.outClosed
	if closing {
		q.outClosed = true
	}
	q.publishLocked()
	q.mu.Unlock()

	if space != nil {
		close(space)
	}
	q.deq.Add(uint64(take))
	q.st.RecordOut(take)
	for _, s := range q.subs {
		// The whole batch flows into the downstream DI chain in one call;
		// subscribers must not retain or mutate the slice (the op.Sink
		// contract), since it is shared across the fan-out and reused by
		// the caller.
		s.sink.ProcessBatch(s.port, scratch[:take])
	}
	if closing {
		for _, s := range q.subs {
			s.sink.Done(s.port)
		}
		return take, false
	}
	return take, true
}
