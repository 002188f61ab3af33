package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
)

// BenchmarkTSAcquireRelease measures the level-3 arbitration cost per
// quantum with no contention.
func BenchmarkTSAcquireRelease(b *testing.B) {
	ts := NewTS(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !ts.Acquire(nil) {
			b.Fatal("acquire failed")
		}
		ts.Release()
	}
}

// BenchmarkTSArbitration measures one grant handoff on a single permit
// with about w executors parked in the wait queue: w churners each take
// the permit, count the grant and release it to the longest waiter, then
// queue again at the tail. One op is one grant, timed until b.N grants
// have been handed over.
func BenchmarkTSArbitration(b *testing.B) {
	for _, w := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("waiters=%d", w), func(b *testing.B) {
			ts := NewTS(1)
			ts.Acquire(nil) // held until every churner has queued
			stop, done := make(chan struct{}), make(chan struct{})
			var grants atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < w; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						// Acquire observes stop only while queued; check it
						// between grants too, so teardown cannot leave one
						// churner winning the uncontended fast path forever.
						select {
						case <-stop:
							return
						default:
						}
						if !ts.Acquire(stop) {
							return
						}
						if grants.Add(1) == int64(b.N) {
							close(done)
						}
						ts.Release()
					}
				}()
			}
			for ts.Waiting() < w {
				time.Sleep(time.Millisecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			ts.Release()
			<-done
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// sweepUnits builds n ready units with distinct front timestamps and chain
// metadata, as the units-sweep fixtures for the pick benchmarks.
func sweepUnits(n int) []*Unit {
	units := make([]*Unit, n)
	for i := range units {
		units[i] = unitWith("q", int64(i), int64(i+100))
		units[i].Steepness = float64(i % 7)
		units[i].SegPos = i % 3
	}
	return units
}

// BenchmarkStrategyPick measures one steady-state scheduling decision —
// Pick plus the post-drain Update — against the incrementally maintained
// ready index, sweeping the unit count across the many-query scaling range
// of Figures 6/7: the indexed path must hold roughly flat as units grow,
// where the O(n) rescan it replaced (scanPick) degraded linearly.
func BenchmarkStrategyPick(b *testing.B) {
	for _, n := range []int{8, 64, 512, 4096} {
		units := sweepUnits(n)
		for _, name := range strategyNames {
			s := initStrat(NewStrategy(name), units)
			b.Run(fmt.Sprintf("%s/units=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j := s.Pick()
					if j < 0 {
						b.Fatal("no pick")
					}
					s.Update(j)
				}
			})
		}
	}
}

// benchExecThroughput pushes b.N elements through a level-2 executor
// draining nq queues from nprod producers per queue — the engine's hot
// path end to end (enqueue, strategy pick, batched drain, DI delivery).
// ns/op is the per-element cost.
func benchExecThroughput(b *testing.B, nq, nprod, batch int) {
	units := make([]*Unit, nq)
	qs := make([]*queue.Queue, nq)
	for i := range units {
		// Bounded, with producers waiting for space before each burst, so
		// the measurement stays in steady state instead of degenerating
		// into ring growth when producers outrun the executor.
		q := queue.New(fmt.Sprintf("q%d", i), 4096)
		q.SetProducers(nprod)
		q.Subscribe(devnull{}, 0)
		qs[i] = q
		units[i] = &Unit{Q: q}
	}
	x := newExec("bench", units, &FIFO{}, batch, time.Millisecond, nil, nil)
	per := b.N / (nq * nprod)
	b.ReportAllocs()
	b.ResetTimer()
	x.start()
	var wg sync.WaitGroup
	for qi, q := range qs {
		for p := 0; p < nprod; p++ {
			n := per
			if qi == 0 && p == 0 {
				n += b.N - per*nq*nprod
			}
			wg.Add(1)
			go func(q *queue.Queue, n int) {
				defer wg.Done()
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
				q.Done(0)
			}(q, n)
		}
	}
	wg.Wait()
	x.wait()
}

// BenchmarkExecThroughput quantifies the batched drain win at the
// executor: batch=1 is the per-element baseline (one lock round-trip and
// one strategy decision per tuple), larger batches amortize both.
func BenchmarkExecThroughput(b *testing.B) {
	for _, batch := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("q4p2batch%d", batch), func(b *testing.B) {
			benchExecThroughput(b, 4, 2, batch)
		})
	}
}

// BenchmarkExecThroughputManyQueues is the units-scaling companion: many
// mostly-idle queues behind one executor, where the per-batch decision
// cost used to rescan every unit.
func BenchmarkExecThroughputManyQueues(b *testing.B) {
	for _, nq := range []int{64, 512} {
		b.Run(fmt.Sprintf("q%dp1batch64", nq), func(b *testing.B) {
			// Calibration rounds with b.N < nq leave most queues empty;
			// they only close immediately, which the executor absorbs.
			benchExecThroughput(b, nq, 1, 64)
		})
	}
}

// BenchmarkDeployBuild measures deployment construction for a mid-size
// graph — the fixed cost of every Reconfigure.
func BenchmarkDeployBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, _ := chainGraph(0)
		d, err := Build(g, GTS(g), Options{Quantum: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		_ = d
	}
}
