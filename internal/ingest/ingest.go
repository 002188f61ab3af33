// Package ingest provides the bounded ingress buffer behind external
// (push-driven) sources. It is the seam between the network — clients
// pushing elements at whatever rate they like — and the scheduler, which
// drains at whatever rate the deployed graph sustains.
//
// The buffer is a bounded MPSC ring: any number of producers Push
// concurrently, exactly one consumer (the source goroutine) pops. Bounding
// is the point — an overloaded engine must not grow an ingress queue until
// OOM. What happens at the bound is the overload policy: Block applies
// backpressure to the pusher (and, through TCP, to the remote client),
// DropNewest rejects the incoming element, DropOldest evicts the oldest
// buffered element to admit the new one. The policy is switchable at
// runtime, which is how the adapt planner's shed decision engages
// emergency shedding on a live deployment.
package ingest

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsms/hmts/internal/ring"
	"github.com/dsms/hmts/internal/stream"
)

// Policy selects what a full buffer does with an incoming element.
type Policy int32

// The overload policies.
const (
	// Block makes Push wait for space: backpressure to the producer.
	Block Policy = iota
	// DropNewest rejects the incoming element and counts it dropped.
	DropNewest
	// DropOldest evicts the oldest buffered element to admit the new one;
	// the eviction is counted dropped.
	DropOldest
)

// String names the policy in the hmtsd protocol's spelling.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	}
	return fmt.Sprintf("Policy(%d)", int32(p))
}

// ParsePolicy parses the protocol spelling produced by String.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "block":
		return Block, nil
	case "drop-newest", "dropnewest":
		return DropNewest, nil
	case "drop-oldest", "dropoldest":
		return DropOldest, nil
	}
	return 0, fmt.Errorf("ingest: unknown overload policy %q", s)
}

// Stats is a snapshot of a buffer's counters.
type Stats struct {
	// Accepted counts elements admitted into the buffer.
	Accepted uint64
	// Dropped counts elements never admitted (DropNewest, or pushed after
	// close) plus admitted elements later evicted (DropOldest).
	Dropped uint64
	// Len and Cap are the current and maximum occupancy.
	Len, Cap int
	// MaxLen is the occupancy high-water mark.
	MaxLen int
	// LagNS is the age of the oldest buffered element on the wall clock —
	// how far ingestion is running behind consumption. Zero when empty.
	LagNS int64
	// Policy is the overload policy in effect right now (which may be a
	// shed override rather than the configured one).
	Policy Policy
	// Shedding reports whether an emergency shed override is engaged.
	Shedding bool
	// Closed reports whether the producer side has signaled end of stream.
	Closed bool
}

var epoch = time.Now()

// monotime returns nanoseconds since package initialization on the
// monotonic clock.
func monotime() int64 { return int64(time.Since(epoch)) }

// Now exposes the ingress clock: nanoseconds on the same monotonic epoch
// the buffer stamps zero-timestamp elements with. A pusher that stamps
// elements itself (to measure end-to-end latency, as the soak harness
// does) must use this clock so sink-side arrival readings subtract
// consistently.
func Now() int64 { return monotime() }

// Buffer is the bounded MPSC ingress ring. Producers call Push/PushBatch
// concurrently; exactly one consumer calls PopWait.
//
// Elements move in runs: a push appends its burst to the ring, and a pop
// copies a run out. Admission times live in a second ring, at, that moves
// in lockstep with elems, so lag is measurable without touching an
// element's event timestamp. The ring never lends its memory out: under
// DropOldest a producer may overwrite any slot, so the consumer always
// works on its own copy. capacity is the bound the policies enforce; the
// rings' storage is allocated up front, rounded up to a power of two.
type Buffer struct {
	capacity int
	policy   atomic.Int32

	mu     sync.Mutex
	elems  ring.Ring[stream.Element]
	at     ring.Ring[int64] // admission time of each element on the ingress clock
	closed bool
	wake   chan struct{} // closed+replaced when elements arrive or the buffer closes
	space  chan struct{} // closed+replaced when room appears or the buffer closes

	accepted atomic.Uint64
	dropped  atomic.Uint64
	maxLen   atomic.Int64
}

// NewBuffer returns a buffer holding at most capacity elements under the
// given overload policy. A capacity below 1 is raised to 1.
func NewBuffer(capacity int, p Policy) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	b := &Buffer{
		capacity: capacity,
		wake:     make(chan struct{}),
		space:    make(chan struct{}),
	}
	b.elems.Grow(capacity)
	b.at.Grow(capacity)
	b.policy.Store(int32(p))
	return b
}

// Policy returns the overload policy currently in effect.
func (b *Buffer) Policy() Policy { return Policy(b.policy.Load()) }

// SetPolicy switches the overload policy; safe at any time. Producers
// blocked under Block re-check the policy when space traffic wakes them,
// so a switch to a dropping policy releases them on the next drain.
func (b *Buffer) SetPolicy(p Policy) { b.policy.Store(int32(p)) }

// Accepted returns how many elements were admitted into the buffer.
func (b *Buffer) Accepted() uint64 { return b.accepted.Load() }

// Dropped returns how many elements were rejected or evicted.
func (b *Buffer) Dropped() uint64 { return b.dropped.Load() }

// Len returns the current occupancy.
func (b *Buffer) Len() int {
	b.mu.Lock()
	n := b.elems.Len()
	b.mu.Unlock()
	return n
}

// Cap returns the buffer's capacity.
func (b *Buffer) Cap() int { return b.capacity }

// Stats returns a coherent snapshot of the buffer's counters.
func (b *Buffer) Stats() Stats {
	b.mu.Lock()
	n := b.elems.Len()
	closed := b.closed
	var lag int64
	if n > 0 {
		lag = monotime() - b.at.Front()
	}
	b.mu.Unlock()
	return Stats{
		Accepted: b.accepted.Load(),
		Dropped:  b.dropped.Load(),
		Len:      n,
		Cap:      b.capacity,
		MaxLen:   int(b.maxLen.Load()),
		LagNS:    lag,
		Policy:   b.Policy(),
		Closed:   closed,
	}
}

// admitLocked appends es to the rings with admission time now; caller
// holds mu and guarantees room for all of it. An element with a zero event
// timestamp is stamped with now too, so protocol clients may delegate
// timestamping to the daemon.
func (b *Buffer) admitLocked(es []stream.Element, now int64) {
	e1, e2 := b.elems.Extend(len(es))
	t1, t2 := b.at.Extend(len(es))
	copy(e2, es[copy(e1, es):])
	stamp(e1, t1, now)
	stamp(e2, t2, now)
	if n := int64(b.elems.Len()); n > b.maxLen.Load() {
		b.maxLen.Store(n)
	}
}

// stamp sets the admission times at, and every zero event timestamp in
// es, to now; es and at are the same chunk of the two lockstep rings.
func stamp(es []stream.Element, at []int64, now int64) {
	at = at[:len(es)]
	for i := range es {
		if es[i].TS == 0 {
			es[i].TS = now
		}
		at[i] = now
	}
}

// wakeLocked rotates the consumer wake channel when occupancy went 0 -> >0;
// caller holds mu and closes the returned channel (if any) after unlocking.
func (b *Buffer) wakeLocked(wasEmpty bool) chan struct{} {
	if !wasEmpty || b.elems.Len() == 0 {
		return nil
	}
	ch := b.wake
	b.wake = make(chan struct{})
	return ch
}

// Push offers one element. It reports whether the element was admitted:
// under Block it always returns true (after waiting for space, unless the
// buffer closes first); under DropNewest a full buffer returns false;
// under DropOldest it returns true, evicting the oldest buffered element.
// Pushing into a closed buffer returns false and counts the element
// dropped. Safe for concurrent producers.
func (b *Buffer) Push(e stream.Element) bool {
	one := [1]stream.Element{e}
	return b.PushBatch(one[:]) == 1
}

// PushBatch offers a burst with one lock acquisition per contiguous run of
// space, appended to the ring as one run, and returns how many
// elements were admitted. Policy semantics match Push element-wise: Block
// admits everything (waiting as needed), DropNewest admits what fits and
// rejects the rest, DropOldest admits everything by evicting. The callee
// does not retain es.
func (b *Buffer) PushBatch(es []stream.Element) int {
	admitted := 0
	for len(es) > 0 {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			b.dropped.Add(uint64(len(es)))
			return admitted
		}
		if free := b.capacity - b.elems.Len(); free > 0 {
			take := min(free, len(es))
			wasEmpty := b.elems.Len() == 0
			b.admitLocked(es[:take], monotime())
			wake := b.wakeLocked(wasEmpty)
			b.mu.Unlock()
			b.accepted.Add(uint64(take))
			if wake != nil {
				close(wake)
			}
			admitted += take
			es = es[take:]
			continue
		}
		switch b.Policy() {
		case DropNewest:
			b.mu.Unlock()
			b.dropped.Add(uint64(len(es)))
			return admitted
		case DropOldest:
			// Only the last cap elements of an oversized remainder can
			// survive; the elements before them are dropped on arrival.
			if len(es) > b.capacity {
				over := uint64(len(es) - b.capacity)
				b.dropped.Add(over)
				es = es[len(es)-b.capacity:]
			}
			evict := len(es) - (b.capacity - b.elems.Len())
			b.elems.Discard(evict)
			b.at.Discard(evict)
			b.admitLocked(es, monotime())
			b.mu.Unlock()
			b.dropped.Add(uint64(evict))
			b.accepted.Add(uint64(len(es)))
			return admitted + len(es)
		default: // Block
			ch := b.space
			b.mu.Unlock()
			<-ch
		}
	}
	return admitted
}

// PopWait copies up to len(scratch) buffered elements into scratch,
// blocking until at least one is available, the buffer closes, or stop
// closes. It returns the count and whether the buffer can still yield
// elements later; (0, false) means the stream is finished (or the wait was
// aborted via stop). Only the single consumer may call it.
func (b *Buffer) PopWait(scratch []stream.Element, stop <-chan struct{}) (int, bool) {
	for {
		b.mu.Lock()
		if n := b.elems.Len(); n > 0 {
			wasFull := n == b.capacity
			take := b.elems.CopyOut(scratch)
			b.elems.Discard(take)
			b.at.Discard(take)
			var space chan struct{}
			if wasFull {
				space = b.space
				b.space = make(chan struct{})
			}
			b.mu.Unlock()
			if space != nil {
				close(space)
			}
			return take, true
		}
		if b.closed {
			b.mu.Unlock()
			return 0, false
		}
		ch := b.wake
		b.mu.Unlock()
		select {
		case <-ch:
		case <-stop:
			return 0, false
		}
	}
}

// Close signals end of stream: buffered elements still drain, but every
// later Push is rejected and producers blocked on a full buffer are
// released. Idempotent and safe to call concurrently with pushes.
func (b *Buffer) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	wake, space := b.wake, b.space
	b.wake, b.space = make(chan struct{}), make(chan struct{})
	b.mu.Unlock()
	close(wake)
	close(space)
}
