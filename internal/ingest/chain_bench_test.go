package ingest_test

import (
	"runtime"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
)

// BenchmarkExternalChain prices the whole fused in-process path at
// GOMAXPROCS=2: PushBatch into an external source's ingress ring, the
// source goroutine draining it into Where → Map → a grouped COUNT over a
// 1 s window (1000 keys, one element per 50 µs of event time) → a
// discarding sink. Under HMTS the chain fuses into the source thread, so
// the producer and that thread are the only two busy goroutines. A fresh
// engine takes every 300 000 elements, as a capacity round would, so the
// window's growth from empty is part of the price; engine construction
// and Run are not. ns/op is ns per element.
func BenchmarkExternalChain(b *testing.B) {
	const (
		round = 300_000
		batch = 256
		keys  = 1000
		step  = int64(50 * time.Microsecond)
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	es := make([]hmts.Element, batch)
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		eng := hmts.New()
		ext := hmts.External("in", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 8192, Batch: batch})
		out := eng.Source("in", ext.Spec()).
			Where("pos", func(e hmts.Element) bool { return e.Val > 0 }).
			Map("scale", func(e hmts.Element) hmts.Element { e.Val *= 2; return e }).
			Aggregate("cnt", hmts.Count, time.Second, func(e hmts.Element) int64 { return e.Key }).
			Discard("out")
		if err := eng.Run(hmts.RunConfig{Mode: hmts.ModeHMTS, QueueBound: 8192}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n := min(round, b.N-done)
		for i := 0; i < n; i += batch {
			k := min(batch, n-i)
			for j := range es[:k] {
				seq := uint64(done + i + j)
				h := seq * 0x9e3779b97f4a7c15
				h ^= h >> 29
				es[j] = hmts.Element{
					TS:  hmts.Time(int64(i+j+1) * step),
					Key: int64(h % keys),
					Val: float64(int64((h>>32)%1000) - 250),
				}
			}
			ext.PushBatch(es[:k])
		}
		ext.Close()
		eng.Wait()
		out.Wait()
		done += n
	}
}
