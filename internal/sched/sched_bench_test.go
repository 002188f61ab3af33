package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
)

// BenchmarkTSAcquireRelease measures the level-3 arbitration cost per
// quantum with no contention.
func BenchmarkTSAcquireRelease(b *testing.B) {
	ts := NewTS(2, 1)
	p := &Proc{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !ts.Acquire(p, nil) {
			b.Fatal("acquire failed")
		}
		ts.Release(p)
	}
}

// BenchmarkTSArbitration measures one grant cycle while w other executors
// keep the wait heap populated on a single permit — the arbitration cost
// the O(n) grant scan used to dominate at scale. The measuring proc runs
// at top priority so an op is the grant path (heap maintenance + handoff),
// not the deliberate aging delay a low-priority waiter sits out; the
// churners park as waiters rather than churning, so the heap holds ~w
// entries for every timed grant and the timed goroutine is not starved of
// the lone CPU.
func BenchmarkTSArbitration(b *testing.B) {
	for _, w := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("waiters=%d", w), func(b *testing.B) {
			ts := NewTS(1, 1)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < w; i++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					p := &Proc{}
					p.SetPriority(k % 8)
					for {
						// Acquire only observes stop while queued; check it
						// between quanta too so teardown cannot leave one
						// churner winning the uncontended fast path forever.
						select {
						case <-stop:
							return
						default:
						}
						if !ts.Acquire(p, stop) {
							return
						}
						ts.Release(p)
					}
				}(i)
			}
			// Let the heap fill before the timer starts, so the b.N
			// calibration rounds see steady-state cost instead of the
			// uncontended fast path (which overshoots b.N by ~1000x).
			for ts.Waiting() < w/2+1 {
				time.Sleep(time.Millisecond)
			}
			p := &Proc{}
			p.SetPriority(1 << 20) // always the best waiter: granted on the next release
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !ts.Acquire(p, stop) {
					b.Fatal("acquire failed")
				}
				ts.Release(p)
			}
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
// of Figures 6/7. Compare with BenchmarkStrategyScanPick: the indexed path
// must hold roughly flat as units grow where the scan degrades linearly.
func BenchmarkStrategyPick(b *testing.B) {
	for _, n := range []int{8, 64, 512, 4096} {
		units := sweepUnits(n)
		for _, s := range []Strategy{&FIFO{}, &RoundRobin{}, &Chain{}, &MaxQueue{}} {
			s.Init(units)
			b.Run(fmt.Sprintf("%s/units=%d", s.Name(), n), func(b *testing.B) {
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

// BenchmarkStrategyScanPick is the before: the original O(n) selection
// that rescans every unit per decision (kept in scanPick for
// cross-checking). Even reading the now-lock-free gauges, it degrades
// linearly in the unit count; the original additionally paid 1–2 queue
// mutex acquisitions per unit.
func BenchmarkStrategyScanPick(b *testing.B) {
	for _, n := range []int{8, 64, 512, 4096} {
		units := sweepUnits(n)
		for _, name := range []string{"fifo", "chain", "maxqueue"} {
			b.Run(fmt.Sprintf("%s/units=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if scanPick(name, units) < 0 {
						b.Fatal("no pick")
					}
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
	x := newExec("bench", units, &RoundRobin{}, batch, time.Millisecond, nil, nil)
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
