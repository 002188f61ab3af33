package queue

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/testutil"
)

func TestDrainBatchFIFOOrder(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 3)
	for i := 0; i < 1000; i++ {
		testutil.Push(q, 0, stream.Element{Key: int64(i)})
	}
	q.Done(0)
	scratch := make([]stream.Element, 128)
	total := 0
	for {
		n, open := q.DrainBatch(scratch, len(scratch))
		total += n
		if !open {
			break
		}
	}
	if total != 1000 {
		t.Fatalf("delivered %d, want 1000", total)
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

func TestDrainBatchScratchBoundsBatch(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	for i := 0; i < 10; i++ {
		testutil.Push(q, 0, stream.Element{Key: int64(i)})
	}
	scratch := make([]stream.Element, 4)
	if n, open := q.DrainBatch(scratch, 100); n != 4 || !open {
		t.Fatalf("DrainBatch capped by scratch = (%d, %v), want (4, true)", n, open)
	}
	if n, open := q.DrainBatch(scratch, 2); n != 2 || !open {
		t.Fatalf("DrainBatch capped by max = (%d, %v), want (2, true)", n, open)
	}
	if n, open := q.DrainBatch(nil, 8); n != 0 || !open {
		t.Fatalf("DrainBatch with empty scratch = (%d, %v), want (0, true)", n, open)
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
}

// TestDrainBatchClosesOnExactBatch: the batch that empties the buffer with
// the input closed propagates Done in the same call, even when the batch
// was completely full.
func TestDrainBatchClosesOnExactBatch(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	for i := 0; i < 64; i++ {
		testutil.Push(q, 0, stream.Element{Key: int64(i)})
	}
	q.Done(0)
	scratch := make([]stream.Element, 64)
	n, open := q.DrainBatch(scratch, 64)
	if n != 64 || open {
		t.Fatalf("closing batch = (%d, %v), want (64, false)", n, open)
	}
	if len(rec.done) != 1 || !q.Closed() {
		t.Fatal("Done not propagated with the closing batch")
	}
	if n, open := q.DrainBatch(scratch, 64); n != 0 || open {
		t.Fatalf("post-close batch = (%d, %v)", n, open)
	}
	if len(rec.done) != 1 {
		t.Fatal("duplicate Done")
	}
}

func TestDrainBatchPropagatesDoneOnEmpty(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	q.Done(0)
	scratch := make([]stream.Element, 8)
	if n, open := q.DrainBatch(scratch, 8); n != 0 || open {
		t.Fatalf("empty closing batch = (%d, %v), want (0, false)", n, open)
	}
	if len(rec.done) != 1 {
		t.Fatal("Done not propagated")
	}
}

func TestProcessBatchFIFOAndStats(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	burst := make([]stream.Element, 100)
	for i := range burst {
		burst[i] = stream.Element{Key: int64(i), TS: int64(i) * 50}
	}
	q.ProcessBatch(0, burst[:40])
	q.ProcessBatch(0, burst[40:])
	if q.Enqueued() != 100 || q.Len() != 100 || q.MaxLen() != 100 {
		t.Fatalf("enq=%d len=%d max=%d", q.Enqueued(), q.Len(), q.MaxLen())
	}
	if in := q.Stats().In(); in != 100 {
		t.Fatalf("stats in = %d, want 100", in)
	}
	if d := q.Stats().InterarrivalNS(); d <= 0 {
		t.Fatalf("interarrival estimate %v after batched enqueue", d)
	}
	q.Done(0)
	scratch := make([]stream.Element, 256)
	n, open := q.DrainBatch(scratch, 256)
	if n != 100 || open {
		t.Fatalf("DrainBatch = (%d, %v), want (100, false)", n, open)
	}
	for i, e := range rec.els {
		if e.Key != int64(i) {
			t.Fatalf("order violated at %d: key %d", i, e.Key)
		}
	}
}

// TestProcessBatchRingWrap forces growth and wrap-around under batched
// enqueue/drain interleaving.
func TestProcessBatchRingWrap(t *testing.T) {
	q := New("q", 0)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	scratch := make([]stream.Element, 16)
	next := int64(0)
	burst := make([]stream.Element, 24)
	for round := 0; round < 50; round++ {
		for i := range burst {
			burst[i] = stream.Element{Key: next}
			next++
		}
		q.ProcessBatch(0, burst)
		q.DrainBatch(scratch, 16)
	}
	q.Done(0)
	for {
		if _, open := q.DrainBatch(scratch, 16); !open {
			break
		}
	}
	if len(rec.els) != int(next) {
		t.Fatalf("delivered %d, want %d", len(rec.els), next)
	}
	for i, e := range rec.els {
		if e.Key != int64(i) {
			t.Fatalf("order broken at %d after ring growth: %d", i, e.Key)
		}
	}
}

// TestProcessBatchPastBoundEnqueuedWhole: a burst larger than the free
// space, and a burst into a queue that is already full, are enqueued
// whole and without blocking; the elements past the bound are counted in
// Overshoot, and nothing is lost or reordered.
func TestProcessBatchPastBoundEnqueuedWhole(t *testing.T) {
	q := New("q", 8)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	burst := make([]stream.Element, 30)
	for i := range burst {
		burst[i] = stream.Element{Key: int64(i)}
	}
	enqDone := make(chan struct{})
	go func() {
		q.ProcessBatch(0, burst[:20]) // 12 past the bound
		q.ProcessBatch(0, burst[20:]) // all 10 past the bound
		q.Done(0)
		close(enqDone)
	}()
	select {
	case <-enqDone:
	case <-time.After(5 * time.Second):
		t.Fatal("ProcessBatch blocked on a full bounded queue")
	}
	if q.Len() != 30 || q.MaxLen() != 30 {
		t.Fatalf("Len=%d MaxLen=%d, want both 30 (bursts enqueued whole)", q.Len(), q.MaxLen())
	}
	if q.Overshoot() != 22 {
		t.Fatalf("Overshoot = %d, want 22 (every element past bound 8)", q.Overshoot())
	}
	if q.FullBlocks() != 0 {
		t.Fatalf("FullBlocks = %d, want 0 (nobody waited)", q.FullBlocks())
	}
	scratch := make([]stream.Element, 8)
	for {
		if _, open := q.DrainBatch(scratch, 8); !open {
			break
		}
	}
	if len(rec.els) != 30 {
		t.Fatalf("delivered %d, want 30", len(rec.els))
	}
	for i, e := range rec.els {
		if e.Key != int64(i) {
			t.Fatalf("order violated at %d: key %d", i, e.Key)
		}
	}
}

// TestProcessBatchBoundedSplitsAcrossSpace: a producer that splits a
// burst across the free space of a bounded queue (enqueue what fits,
// WaitSpace, repeat) blocks with the queue full at the bound, is released
// by the drainer, and delivers the whole burst in order without ever
// passing the bound.
func TestProcessBatchBoundedSplitsAcrossSpace(t *testing.T) {
	q := New("q", 8)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	burst := make([]stream.Element, 20)
	for i := range burst {
		burst[i] = stream.Element{Key: int64(i)}
	}
	enqDone := make(chan struct{})
	go func() {
		pushInSpace(q, 8, burst, nil)
		q.Done(0)
		close(enqDone)
	}()
	// The producer must block with the queue full at the bound.
	waitCond(t, func() bool { return q.Len() == 8 && q.FullBlocks() == 1 },
		"bounded queue never filled with the producer waiting")
	select {
	case <-enqDone:
		t.Fatal("producer finished with elements still unqueued")
	case <-time.After(10 * time.Millisecond):
	}
	scratch := make([]stream.Element, 8)
	wait := awaitWork(q)
	for {
		if _, open := q.DrainBatch(scratch, 8); !open {
			break
		}
		wait()
	}
	<-enqDone
	if len(rec.els) != 20 {
		t.Fatalf("delivered %d, want 20", len(rec.els))
	}
	for i, e := range rec.els {
		if e.Key != int64(i) {
			t.Fatalf("order violated at %d: key %d", i, e.Key)
		}
	}
	if q.MaxLen() > 8 || q.Overshoot() != 0 {
		t.Fatalf("MaxLen=%d Overshoot=%d, want the bound 8 never passed", q.MaxLen(), q.Overshoot())
	}
}

// TestPoisonReleasesBlockedProcessBatch: poisoning while a batched
// producer waits for space on a full queue releases it and drops the
// burst it then hands over.
func TestPoisonReleasesBlockedProcessBatch(t *testing.T) {
	q := New("q", 4)
	q.Subscribe(&recorder{}, 0)
	burst := make([]stream.Element, 10)
	for i := range burst {
		burst[i] = stream.Element{Key: int64(i)}
	}
	q.ProcessBatch(0, burst[:4]) // fill to the bound
	unblocked := make(chan struct{})
	go func() {
		q.WaitSpace(nil) // blocks: full
		q.ProcessBatch(0, burst[4:])
		close(unblocked)
	}()
	deadline := time.After(2 * time.Second)
	for q.FullBlocks() == 0 {
		select {
		case <-deadline:
			t.Fatal("batched producer never parked on the full queue")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case <-unblocked:
		t.Fatal("WaitSpace returned on a full bounded queue")
	case <-time.After(10 * time.Millisecond):
	}
	q.Poison()
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Poison did not release the blocked batched producer")
	}
	if q.Dropped() != 6 {
		t.Fatalf("dropped %d, want the 6 unqueued elements", q.Dropped())
	}
	if q.Len() != 4 {
		t.Fatalf("buffered %d, want the 4 pre-poison elements", q.Len())
	}
	// Whole bursts into a poisoned queue are dropped outright.
	q.ProcessBatch(0, burst[:3])
	if q.Dropped() != 9 {
		t.Fatalf("dropped %d, want 9", q.Dropped())
	}
}

// TestConcurrentBatchedProducersBatchedDrainer: several producers mixing
// batches of one and bursts against one DrainBatch consumer on a bounded
// queue — conservation, no duplicates, per-producer order. Run with -race.
func TestConcurrentBatchedProducersBatchedDrainer(t *testing.T) {
	const producers, per, burst = 8, 5_000, 32
	q := New("q", 256)
	q.SetProducers(producers)
	rec := &recorder{}
	q.Subscribe(rec, 0)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if p%2 == 0 {
				buf := make([]stream.Element, 0, burst)
				for i := 0; i < per; i++ {
					buf = append(buf, stream.Element{Key: int64(p), Val: float64(i)})
					if len(buf) == burst {
						q.ProcessBatch(0, buf)
						buf = buf[:0]
					}
				}
				q.ProcessBatch(0, buf)
			} else {
				for i := 0; i < per; i++ {
					testutil.Push(q, 0, stream.Element{Key: int64(p), Val: float64(i)})
				}
			}
			q.Done(0)
		}(p)
	}
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		scratch := make([]stream.Element, 64)
		wait := awaitWork(q)
		for {
			if _, open := q.DrainBatch(scratch, 64); !open {
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

// TestBoundedBackpressureReleaseBatched: the coalesced space signal wakes
// every producer blocked behind a full bounded queue. Run with -race.
func TestBoundedBackpressureReleaseBatched(t *testing.T) {
	const producers, per = 4, 2_000
	q := New("q", 16) // far smaller than the offered load
	q.SetProducers(producers)
	rec := &recorder{}
	q.Subscribe(rec, 0)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]stream.Element, 0, 7)
			for i := 0; i < per; i++ {
				buf = append(buf, stream.Element{Key: int64(p), Val: float64(i)})
				if len(buf) == cap(buf) {
					q.WaitSpace(nil)
					q.ProcessBatch(0, buf)
					buf = buf[:0]
				}
			}
			q.WaitSpace(nil)
			q.ProcessBatch(0, buf)
			q.Done(0)
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		scratch := make([]stream.Element, 16)
		wait := awaitWork(q)
		for {
			if _, open := q.DrainBatch(scratch, 16); !open {
				return
			}
			wait()
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("drainer never finished: lost space wakeup?")
	}
	if got := rec.len(); got != producers*per {
		t.Fatalf("conservation violated: %d of %d delivered", got, producers*per)
	}
}

// TestPoisonDuringConcurrentBatchedLoad: poison fires while batched
// producers are enqueueing and a batched drainer is draining; everything
// must unwind without deadlock. Run with -race.
func TestPoisonDuringConcurrentBatchedLoad(t *testing.T) {
	const producers = 6
	q := New("q", 32)
	q.SetProducers(producers)
	q.Subscribe(&recorder{}, 0)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			burst := make([]stream.Element, 16)
			for i := 0; i < 1_000; i++ {
				q.ProcessBatch(0, burst)
			}
			q.Done(0)
		}(p)
	}
	stopDrain := make(chan struct{})
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		scratch := make([]stream.Element, 32)
		for {
			select {
			case <-stopDrain:
				return
			default:
			}
			if _, open := q.DrainBatch(scratch, 32); !open {
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	q.Poison()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatal("poisoned producers did not unwind")
	}
	close(stopDrain)
	<-drainDone
}

// Property: any interleaving of single enqueues, batched enqueues, single
// drains and batched drains preserves FIFO order and conservation.
func TestBatchedPropertyFIFO(t *testing.T) {
	if err := quick.Check(func(ops []uint8) bool {
		q := New("q", 0)
		rec := &recorder{}
		q.Subscribe(rec, 0)
		scratch := make([]stream.Element, 11)
		want := 0
		for _, b := range ops {
			switch b % 4 {
			case 0:
				for i := 0; i < int(b%17); i++ {
					testutil.Push(q, 0, stream.Element{Key: int64(want)})
					want++
				}
			case 1:
				burst := make([]stream.Element, int(b%23))
				for i := range burst {
					burst[i] = stream.Element{Key: int64(want)}
					want++
				}
				q.ProcessBatch(0, burst)
			case 2:
				drain(q, 5)
			case 3:
				q.DrainBatch(scratch, 9)
			}
		}
		q.Done(0)
		for {
			if _, open := q.DrainBatch(scratch, len(scratch)); !open {
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
