package queue

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/testutil"
)

// recorder is a minimal downstream sink.
type recorder struct {
	mu   sync.Mutex
	els  []stream.Element
	done []int
}

func (r *recorder) ProcessBatch(_ int, es []stream.Element) {
	r.mu.Lock()
	r.els = append(r.els, es...)
	r.mu.Unlock()
}

func (r *recorder) Done(port int) {
	r.mu.Lock()
	r.done = append(r.done, port)
	r.mu.Unlock()
}

// drain delivers up to n elements through DrainBatch with a scratch slice
// sized to the request (n <= 0 asks for one, as DrainBatch does).
func drain(q *Queue, n int) (int, bool) {
	return q.DrainBatch(make([]stream.Element, max(n, 1)), n)
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.els)
}

func TestFIFOOrder(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 3)
	for i := 0; i < 1000; i++ {
		testutil.Push(q, 0, stream.Element{Key: int64(i)})
	}
	q.Done(0)
	n, open := drain(q, 10_000)
	if n != 1000 || open {
		t.Fatalf("drain = (%d, %v), want (1000, false)", n, open)
	}
	for i, e := range rec.els {
		if e.Key != int64(i) {
			t.Fatalf("order violated at %d: key %d", i, e.Key)
		}
	}
	if len(rec.done) != 1 || rec.done[0] != 3 {
		t.Fatalf("Done propagation: %v", rec.done)
	}
}

func TestDrainBatching(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	for i := 0; i < 100; i++ {
		testutil.Push(q, 0, stream.Element{Key: int64(i)})
	}
	n, open := drain(q, 30)
	if n != 30 || !open {
		t.Fatalf("drain(30) = (%d, %v)", n, open)
	}
	if q.Len() != 70 {
		t.Fatalf("Len after partial drain: %d", q.Len())
	}
	n, open = drain(q, 0) // max <= 0 behaves as 1
	if n != 1 || !open {
		t.Fatalf("drain(0) = (%d, %v)", n, open)
	}
}

func TestDoneOnlyAfterDrainingBuffer(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	testutil.Push(q, 0, stream.Element{Key: 1})
	q.Done(0)
	if q.Closed() {
		t.Fatal("queue closed before drain")
	}
	// The drain that empties the buffer with the input already closed
	// propagates Done in the same call — even when it delivered exactly
	// max elements — so the executor never pays a wakeup just to learn
	// the queue is finished.
	n, open := drain(q, 1)
	if n != 1 || open {
		t.Fatalf("closing drain = (%d, %v), want (1, false)", n, open)
	}
	if len(rec.done) != 1 || !q.Closed() {
		t.Fatal("Done not propagated exactly once")
	}
	// Further drains stay closed and quiet.
	if n, open := drain(q, 5); n != 0 || open {
		t.Fatalf("post-close drain = (%d, %v)", n, open)
	}
	if len(rec.done) != 1 {
		t.Fatal("duplicate Done")
	}
}

// TestDrainExactMaxClosesQueue pins the regression where a drain delivered
// exactly max elements that emptied the buffer with the input closed but
// still reported open=true, costing the executor a wasted wakeup before
// Done propagated.
func TestDrainExactMaxClosesQueue(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	for i := 0; i < 64; i++ {
		testutil.Push(q, 0, stream.Element{Key: int64(i)})
	}
	q.Done(0)
	n, open := drain(q, 64)
	if n != 64 || open {
		t.Fatalf("drain(64) = (%d, %v), want (64, false)", n, open)
	}
	if len(rec.done) != 1 || !q.Closed() {
		t.Fatalf("Done not propagated with the closing batch: done=%v closed=%v", rec.done, q.Closed())
	}
	// Input still open: an exactly-max drain that empties the buffer must
	// NOT close the queue.
	q2 := New("q2", 0)
	rec2 := &recorder{}
	q2.Subscribe(rec2, 0)
	testutil.Push(q2, 0, stream.Element{})
	if n, open := drain(q2, 1); n != 1 || !open {
		t.Fatalf("drain(1) with live input = (%d, %v), want (1, true)", n, open)
	}
	if len(rec2.done) != 0 {
		t.Fatal("Done propagated while input still open")
	}
}

func TestMultipleProducers(t *testing.T) {
	q := New("q", 0)
	q.SetProducers(3)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	q.Done(0)
	q.Done(0)
	if q.InputClosed() {
		t.Fatal("input closed after 2 of 3 producers")
	}
	q.Done(0)
	if !q.InputClosed() {
		t.Fatal("input should be closed")
	}
	if _, open := drain(q, 1); open {
		t.Fatal("drain should close the queue")
	}
}

func TestEnqueueAfterCloseIsBug(t *testing.T) {
	q := New("q", 0)
	q.Subscribe(&recorder{}, 0)
	q.Done(0)
	defer func() {
		if recover() == nil {
			t.Fatal("enqueue into closed queue should panic")
		}
	}()
	testutil.Push(q, 0, stream.Element{})
}

func TestBoundedBackpressure(t *testing.T) {
	q := New("q", 4)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	for i := 0; i < 4; i++ {
		testutil.Push(q, 0, stream.Element{Key: int64(i)})
	}
	blocked := make(chan struct{})
	go func() {
		q.WaitSpace(nil) // must block on full queue
		testutil.Push(q, 0, stream.Element{Key: 99})
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("producer did not block on a full bounded queue")
	case <-time.After(20 * time.Millisecond):
	}
	drain(q, 1)
	select {
	case <-blocked:
	case <-time.After(time.Second):
		t.Fatal("producer did not unblock after drain made room")
	}
	q.Done(0)
	for {
		if _, open := drain(q, 10); !open {
			break
		}
	}
	if rec.len() != 5 {
		t.Fatalf("delivered %d, want 5", rec.len())
	}
}

func TestStatsCounters(t *testing.T) {
	q := New("q", 0)
	q.Subscribe(&recorder{}, 0)
	for i := 0; i < 10; i++ {
		testutil.Push(q, 0, stream.Element{TS: int64(i) * 50})
	}
	if q.Enqueued() != 10 || q.Dequeued() != 0 || q.Len() != 10 || q.MaxLen() != 10 {
		t.Fatalf("enq=%d deq=%d len=%d max=%d", q.Enqueued(), q.Dequeued(), q.Len(), q.MaxLen())
	}
	drain(q, 4)
	if q.Dequeued() != 4 || q.Len() != 6 || q.MaxLen() != 10 {
		t.Fatalf("after drain: deq=%d len=%d max=%d", q.Dequeued(), q.Len(), q.MaxLen())
	}
	if d := q.Stats().InterarrivalNS(); d <= 0 {
		t.Fatalf("interarrival estimate %v", d)
	}
}

func TestFrontTS(t *testing.T) {
	q := New("q", 0)
	q.Subscribe(&recorder{}, 0)
	if _, n, _, _ := q.Gauges(); n != 0 {
		t.Fatalf("empty queue reports %d elements", n)
	}
	testutil.Push(q, 0, stream.Element{TS: 42})
	testutil.Push(q, 0, stream.Element{TS: 43})
	if ts, n, _, _ := q.Gauges(); n != 2 || ts != 42 {
		t.Fatalf("Gauges = (front %d, len %d), want (42, 2)", ts, n)
	}
}

// awaitWork installs a notify callback on q, the way an executor does,
// and returns a function that blocks until q has elements buffered or
// its input has closed.
func awaitWork(q *Queue) func() {
	ping := make(chan struct{}, 1)
	q.SetNotify(func() {
		select {
		case ping <- struct{}{}:
		default:
		}
	})
	return func() {
		for {
			if _, n, inClosed, _ := q.Gauges(); n > 0 || inClosed {
				return
			}
			<-ping
		}
	}
}

func TestNotifyCallback(t *testing.T) {
	q := New("q", 0)
	q.Subscribe(&recorder{}, 0)
	pings := 0
	q.SetNotify(func() { pings++ })
	testutil.Push(q, 0, stream.Element{})
	if pings != 1 {
		t.Fatalf("pings after enqueue into empty queue: %d, want 1", pings)
	}
	// Enqueues into a non-empty queue ping too: length-ordered strategies
	// need to hear about the growth.
	testutil.Push(q, 0, stream.Element{})
	if pings != 2 {
		t.Fatalf("pings after second enqueue: %d, want 2", pings)
	}
	// The gauges are published before the callback fires.
	saw := -1
	q.SetNotify(func() { saw = q.Len() })
	testutil.Push(q, 0, stream.Element{TS: 9})
	if saw != 3 {
		t.Fatalf("callback observed len %d, want 3", saw)
	}
	// Input close pings.
	pings = 0
	q.SetNotify(func() { pings++ })
	q.Done(0)
	if pings != 1 {
		t.Fatalf("pings on input close: %d, want 1", pings)
	}
}

func TestGaugesTrackQueueState(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	gauges := func(wantTS int64, wantN int, wantIn, wantOut bool) {
		t.Helper()
		ts, n, in, out := q.Gauges()
		if n != wantN || (n > 0 && ts != wantTS) || in != wantIn || out != wantOut {
			t.Fatalf("Gauges = (front %d, len %d, in %v, out %v), want (%d, %d, %v, %v)",
				ts, n, in, out, wantTS, wantN, wantIn, wantOut)
		}
		if q.Len() != n || q.InputClosed() != in || q.Closed() != out {
			t.Fatalf("Len/InputClosed/Closed = %d/%v/%v disagree with Gauges",
				q.Len(), q.InputClosed(), q.Closed())
		}
	}
	gauges(0, 0, false, false)
	testutil.Push(q, 0, stream.Element{TS: 7})
	testutil.Push(q, 0, stream.Element{TS: 8})
	gauges(7, 2, false, false)
	drain(q, 1)
	gauges(8, 1, false, false)
	q.Done(0)
	gauges(8, 1, true, false)
	drain(q, 4) // deliver the remaining element and propagate Done
	gauges(0, 0, true, true)
}

// TestConcurrentProducersConservation: elements in == elements out, no
// duplicates, per-producer order preserved.
func TestConcurrentProducersConservation(t *testing.T) {
	const producers, per = 8, 5_000
	q := New("q", 256)
	q.SetProducers(producers)
	rec := &recorder{}
	q.Subscribe(rec, 0)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				testutil.Push(q, 0, stream.Element{Key: int64(p), Val: float64(i)})
			}
			q.Done(0)
		}(p)
	}
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		wait := awaitWork(q)
		for {
			if _, open := drain(q, 64); !open {
				return
			}
			wait()
		}
	}()
	wg.Wait()
	<-consumerDone

	if got := rec.len(); got != producers*per {
		t.Fatalf("conservation violated: %d of %d delivered", got, producers*per)
	}
	next := make([]float64, producers)
	for _, e := range rec.els {
		if e.Val != next[e.Key] {
			t.Fatalf("producer %d order violated: got %v, want %v", e.Key, e.Val, next[e.Key])
		}
		next[e.Key]++
	}
}

// Property: for any sequence of enqueue batches, draining returns exactly
// the enqueued elements in order.
func TestDrainPropertyFIFO(t *testing.T) {
	if err := quick.Check(func(batches []uint8) bool {
		q := New("q", 0)
		rec := &recorder{}
		q.Subscribe(rec, 0)
		want := 0
		for _, b := range batches {
			for i := 0; i < int(b%17); i++ {
				testutil.Push(q, 0, stream.Element{Key: int64(want)})
				want++
			}
			drain(q, 7) // interleaved partial drains
		}
		q.Done(0)
		for {
			if _, open := drain(q, 13); !open {
				break
			}
		}
		if rec.len() != want {
			return false
		}
		for i, e := range rec.els {
			if e.Key != int64(i) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRingGrowthPreservesOrderAcrossWrap(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	next := int64(0)
	// Force wrap-around and growth: enqueue 24, drain 16, repeatedly.
	for round := 0; round < 50; round++ {
		for i := 0; i < 24; i++ {
			testutil.Push(q, 0, stream.Element{Key: next})
			next++
		}
		drain(q, 16)
	}
	q.Done(0)
	for {
		if _, open := drain(q, 64); !open {
			break
		}
	}
	for i, e := range rec.els {
		if e.Key != int64(i) {
			t.Fatalf("order broken at %d after ring growth: %d", i, e.Key)
		}
	}
}

func TestUnsubscribe(t *testing.T) {
	q := New("q", 0)
	a, b := &recorder{}, &recorder{}
	q.Subscribe(a, 0)
	q.Subscribe(b, 1)
	testutil.Push(q, 0, stream.Element{})
	drain(q, 1)
	q.Unsubscribe(a, 0)
	testutil.Push(q, 0, stream.Element{})
	drain(q, 1)
	if a.len() != 1 || b.len() != 2 {
		t.Fatalf("a=%d b=%d", a.len(), b.len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unsubscribing unknown edge should panic")
		}
	}()
	q.Unsubscribe(a, 0)
}

func TestPoisonReleasesBlockedProducer(t *testing.T) {
	q := New("q", 2)
	q.Subscribe(&recorder{}, 0)
	testutil.Push(q, 0, stream.Element{})
	testutil.Push(q, 0, stream.Element{})
	unblocked := make(chan struct{})
	go func() {
		q.WaitSpace(nil) // blocks: full
		testutil.Push(q, 0, stream.Element{Key: 99})
		close(unblocked)
	}()
	time.Sleep(5 * time.Millisecond)
	q.Poison()
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Poison did not release the blocked producer")
	}
	if q.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", q.Dropped())
	}
	// Further enqueues are dropped silently; buffered elements drain.
	testutil.Push(q, 0, stream.Element{Key: 100})
	if q.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", q.Dropped())
	}
	if q.Len() != 2 {
		t.Fatalf("buffered %d, want the 2 pre-poison elements", q.Len())
	}
	q.Poison() // idempotent
}

// TestProcessBatchOvershootCounted: pushes into a full queue never block;
// every element past the bound is enqueued and counted in Overshoot, and
// no wait is metered because nobody waited.
func TestProcessBatchOvershootCounted(t *testing.T) {
	q := New("q", 2)
	q.Subscribe(&recorder{}, 0)
	for i := 0; i < 5; i++ {
		done := make(chan struct{})
		go func(i int) {
			testutil.Push(q, 0, stream.Element{Key: int64(i)})
			close(done)
		}(i)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("push %d blocked on a full queue", i)
		}
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5 (bound overshot)", q.Len())
	}
	if q.FullBlocks() != 0 {
		t.Fatalf("FullBlocks = %d, want 0 (never parked)", q.FullBlocks())
	}
	if q.Overshoot() != 3 {
		t.Fatalf("Overshoot = %d, want 3 (one per over-bound push)", q.Overshoot())
	}
}

// TestWaitSpaceReturnsAtOnce: an unbounded, a non-full and a poisoned
// queue never park the caller, and meter no wait.
func TestWaitSpaceReturnsAtOnce(t *testing.T) {
	unbounded := New("u", 0)
	testutil.Push(unbounded, 0, stream.Element{})
	notFull := New("n", 2)
	testutil.Push(notFull, 0, stream.Element{})
	poisoned := New("p", 1)
	testutil.Push(poisoned, 0, stream.Element{})
	poisoned.Poison()
	for _, q := range []*Queue{unbounded, notFull, poisoned} {
		done := make(chan struct{})
		go func() {
			q.WaitSpace(nil)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("WaitSpace on %s parked", q.Name())
		}
		if q.FullBlocks() != 0 || q.BlockedNS() != 0 {
			t.Fatalf("%s: FullBlocks=%d BlockedNS=%d, want no wait metered",
				q.Name(), q.FullBlocks(), q.BlockedNS())
		}
	}
}

// TestWaitSpaceAbortWake: abort releases a producer parked on a full
// queue; the push that follows lands past the bound, so no element is
// lost, and the overshoot is counted.
func TestWaitSpaceAbortWake(t *testing.T) {
	q := New("q", 1)
	q.Subscribe(&recorder{}, 0)
	abort := make(chan struct{})
	testutil.Push(q, 0, stream.Element{Key: 0}) // fill to the bound
	done := make(chan struct{})
	go func() {
		q.WaitSpace(abort)
		testutil.Push(q, 0, stream.Element{Key: 1})
		close(done)
	}()
	waitCond(t, func() bool { return q.FullBlocks() == 1 }, "producer never parked")
	select {
	case <-done:
		t.Fatal("WaitSpace returned on a full queue before abort")
	case <-time.After(10 * time.Millisecond):
	}
	close(abort)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aborted wait never returned")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (push after abort lands past bound)", q.Len())
	}
	if q.Overshoot() != 1 {
		t.Fatalf("Overshoot = %d, want 1 (the element past the bound)", q.Overshoot())
	}
	if q.BlockedNS() <= 0 {
		t.Fatalf("BlockedNS = %d after a metered park", q.BlockedNS())
	}
}

// TestHookBatchRemainderForced: a batched producer waiting for space is
// released by its abort hook (the channel handed to WaitSpace); the
// remainder of its batch is then pushed whole past the bound, counted in
// Overshoot, and the producer does not park again.
func TestHookBatchRemainderForced(t *testing.T) {
	q := New("q", 2)
	q.Subscribe(&recorder{}, 0)
	abort := make(chan struct{})
	es := make([]stream.Element, 10)
	for i := range es {
		es[i] = stream.Element{Key: int64(i)}
	}
	done := make(chan struct{})
	go func() {
		pushInSpace(q, 2, es, abort)
		close(done)
	}()
	waitCond(t, func() bool { return q.FullBlocks() == 1 }, "batch producer never parked")
	close(abort)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aborted batch push never completed")
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d, want all 10 (remainder forced past bound)", q.Len())
	}
	if q.Overshoot() != 8 {
		t.Fatalf("Overshoot = %d, want 8 (whole remainder past bound 2)", q.Overshoot())
	}
	if q.FullBlocks() != 1 {
		t.Fatalf("FullBlocks = %d, want 1 (no re-park after abort)", q.FullBlocks())
	}
}

// TestWaitSpacePoisonWake: poison releases a parked producer, whose
// element is then dropped and counted rather than enqueued.
func TestWaitSpacePoisonWake(t *testing.T) {
	q := New("q", 1)
	testutil.Push(q, 0, stream.Element{Key: 0})
	done := make(chan struct{})
	go func() {
		q.WaitSpace(nil)
		testutil.Push(q, 0, stream.Element{Key: 1})
		close(done)
	}()
	waitCond(t, func() bool { return q.FullBlocks() == 1 }, "producer never parked")
	q.Poison()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("poisoned wait never returned")
	}
	if q.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", q.Dropped())
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (poisoned element not enqueued)", q.Len())
	}
}

// TestWaitSpaceCountersUnderDrain: a producer that waits for space before
// every push, against a slower drainer, meters FullBlocks and BlockedNS
// and respects the bound throughout.
func TestWaitSpaceCountersUnderDrain(t *testing.T) {
	const n = 200
	const bound = 4
	q := New("q", bound)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	go func() {
		for i := 0; i < n; i++ {
			q.WaitSpace(nil)
			testutil.Push(q, 0, stream.Element{Key: int64(i)})
		}
		q.Done(0)
	}()
	for open := true; open; {
		_, open = drain(q, 3)
		time.Sleep(50 * time.Microsecond)
	}
	if rec.len() != n {
		t.Fatalf("delivered %d, want %d", rec.len(), n)
	}
	if q.MaxLen() > bound {
		t.Fatalf("MaxLen %d exceeds bound %d", q.MaxLen(), bound)
	}
	if q.FullBlocks() == 0 {
		t.Fatal("producer never stalled despite drain being slower than push")
	}
	if q.BlockedNS() <= 0 {
		t.Fatalf("BlockedNS = %d with %d full-blocks", q.BlockedNS(), q.FullBlocks())
	}
	if q.Overshoot() != 0 {
		t.Fatalf("Overshoot = %d, want 0 (a single waiting producer never breaches the bound)", q.Overshoot())
	}
}

// pushInSpace hands es to q the way a bounded producer splits a burst
// across the queue's free space: it enqueues what fits under the bound,
// waits with WaitSpace, and repeats. Once abort (may be nil) fires, the
// remainder is pushed whole, past the bound. q must not be poisoned.
func pushInSpace(q *Queue, bound int, es []stream.Element, abort <-chan struct{}) {
	for len(es) > 0 {
		n := len(es)
		select {
		case <-abort:
		default:
			n = min(n, max(bound-q.Len(), 0))
		}
		q.ProcessBatch(0, es[:n])
		if es = es[n:]; len(es) > 0 {
			q.WaitSpace(abort)
		}
	}
}

// waitCond polls cond with a deadline.
func waitCond(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
