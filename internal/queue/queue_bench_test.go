package queue

import (
	"sync"
	"testing"

	"github.com/dsms/hmts/internal/stream"
)

type sinkhole struct{}

func (sinkhole) ProcessBatch(int, []stream.Element) {}
func (sinkhole) Done(int)                           {}

// BenchmarkEnqueueDequeue measures the single-threaded cost of one element
// through a queue — the per-edge overhead GTS and OTS pay that DI avoids
// (the crux of Figure 7).
func BenchmarkEnqueueDequeue(b *testing.B) {
	q := New("q", 0)
	q.Subscribe(sinkhole{}, 0)
	one := make([]stream.Element, 1)
	scratch := make([]stream.Element, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one[0] = stream.Element{TS: int64(i)}
		q.ProcessBatch(0, one)
		q.DrainBatch(scratch, 1)
	}
}

// BenchmarkBatchedDrain amortizes the strategy decision over a batch.
func BenchmarkBatchedDrain(b *testing.B) {
	q := New("q", 0)
	q.Subscribe(sinkhole{}, 0)
	const batch = 64
	one := make([]stream.Element, 1)
	scratch := make([]stream.Element, batch)
	b.ReportAllocs()
	for i := 0; i < b.N; i += batch {
		for j := 0; j < batch; j++ {
			one[0] = stream.Element{TS: int64(i + j)}
			q.ProcessBatch(0, one)
		}
		q.DrainBatch(scratch, batch)
	}
}

// BenchmarkProducerConsumer measures cross-goroutine handoff — the OTS
// per-edge cost under real concurrency.
func BenchmarkProducerConsumer(b *testing.B) {
	q := New("q", 1024)
	q.Subscribe(sinkhole{}, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		scratch := make([]stream.Element, 64)
		for {
			if _, open := q.DrainBatch(scratch, 64); !open {
				return
			}
			q.WaitWork(nil)
		}
	}()
	one := make([]stream.Element, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one[0] = stream.Element{TS: int64(i)}
		q.WaitSpace(nil)
		q.ProcessBatch(0, one)
	}
	q.Done(0)
	<-done
}

// BenchmarkBatchedTransfer amortizes the queue mutex over whole batches on
// both sides: ProcessBatch in, DrainBatch out, single-threaded.
func BenchmarkBatchedTransfer(b *testing.B) {
	q := New("q", 0)
	q.Subscribe(sinkhole{}, 0)
	const batch = 64
	burst := make([]stream.Element, batch)
	scratch := make([]stream.Element, batch)
	b.ReportAllocs()
	for i := 0; i < b.N; i += batch {
		for j := range burst {
			burst[j].TS = int64(i + j)
		}
		q.ProcessBatch(0, burst)
		q.DrainBatch(scratch, batch)
	}
}

// benchTransfer pushes b.N elements through one queue from nprod
// concurrent producers, each waiting for space before every push, to one
// draining consumer and reports per-element cost. batchedEnq uses ProcessBatch bursts of 64 rather than batches of
// one; batchedDrain drains up to 256 elements per DrainBatch call rather
// than one — the before/after pairs for the hot-path batching.
func benchTransfer(b *testing.B, nprod, bound int, batchedEnq, batchedDrain bool) {
	q := New("q", bound)
	q.SetProducers(nprod)
	q.Subscribe(sinkhole{}, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		scratch := make([]stream.Element, 256)
		for {
			take := 1
			if batchedDrain {
				take = len(scratch)
			}
			if _, open := q.DrainBatch(scratch, take); !open {
				return
			}
			q.WaitWork(nil)
		}
	}()
	per := b.N / nprod
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < nprod; p++ {
		n := per
		if p == 0 {
			n += b.N - per*nprod
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			if batchedEnq {
				const burst = 64
				buf := make([]stream.Element, 0, burst)
				for i := 0; i < n; i++ {
					buf = append(buf, stream.Element{TS: int64(i)})
					if len(buf) == burst {
						q.WaitSpace(nil)
						q.ProcessBatch(0, buf)
						buf = buf[:0]
					}
				}
				q.WaitSpace(nil)
				q.ProcessBatch(0, buf)
			} else {
				one := make([]stream.Element, 1)
				for i := 0; i < n; i++ {
					one[0] = stream.Element{TS: int64(i)}
					q.WaitSpace(nil)
					q.ProcessBatch(0, one)
				}
			}
			q.Done(0)
		}(n)
	}
	wg.Wait()
	<-done
}

// BenchmarkSingleProducer compares the per-element and batched transfer
// paths with one producer. The generous bound keeps the measurement in
// steady state — unbounded, fast batched producers outrun the drainer and
// the number degenerates into ring-growth cost.
func BenchmarkSingleProducer(b *testing.B) {
	b.Run("perElement", func(b *testing.B) { benchTransfer(b, 1, 4096, false, false) })
	b.Run("batched", func(b *testing.B) { benchTransfer(b, 1, 4096, true, true) })
}

// BenchmarkMultiProducer compares the paths under producer contention —
// the per-tuple synchronization overhead the batched path amortizes.
func BenchmarkMultiProducer(b *testing.B) {
	b.Run("perElement", func(b *testing.B) { benchTransfer(b, 4, 4096, false, false) })
	b.Run("batched", func(b *testing.B) { benchTransfer(b, 4, 4096, true, true) })
	b.Run("batchedDrainOnly", func(b *testing.B) { benchTransfer(b, 4, 4096, false, true) })
}

// BenchmarkBoundedBackpressure compares the paths when the queue bound
// engages and the space-channel wakeups matter.
func BenchmarkBoundedBackpressure(b *testing.B) {
	b.Run("perElement", func(b *testing.B) { benchTransfer(b, 4, 512, false, false) })
	b.Run("batched", func(b *testing.B) { benchTransfer(b, 4, 512, true, true) })
}
