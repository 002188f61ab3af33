package hmts_test

import (
	"fmt"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/workload"
)

// The multi-query sharing benchmarks: 1000 similar standing queries —
// identical selective prefix (where → grouped count aggregate), a
// per-query divergent threshold filter — registered either through
// AddQuery (common-prefix subsumption: the prefix exists once) or as
// naive independent plans (the prefix is duplicated 1000 times). Both
// engines process the same replayed input under PureDI, so the measured
// difference is pure per-element operator work, not queueing. The
// committed BENCH_multi.json tracks shared ≥ 10x naive. shared-hmts runs
// the shared plan under HMTS, so placement decides which of the
// divergent filters share the prefix's virtual operator and which get a
// queue and an executor.

const (
	mqQueries = 1000
	mqElems   = 2000
	mqRateHz  = 1e6 // the replayed timestamps are 1µs apart
)

func mqData() []hmts.Element {
	els := make([]hmts.Element, mqElems)
	for i := range els {
		els[i] = hmts.Element{
			TS:  hmts.Time(i+1) * 1000,
			Key: int64(i % 100),
			Val: float64(i%1000) / 1000, // val > 0.9 selects ~10%
		}
	}
	return els
}

type nullQuerySink struct{}

func (nullQuerySink) Process(int, hmts.Element) {}
func (nullQuerySink) Done(int)                  {}

// mqChain is the query shape: shared prefix, divergent having-filter.
func mqChain(src *hmts.Stream, i int) *hmts.Stream {
	thr := float64(i%7) + 0.5
	return src.
		Where("hot", func(e hmts.Element) bool { return e.Val > 0.9 }).
		Aggregate("cnt", hmts.Count, 10*time.Millisecond, func(e hmts.Element) int64 { return e.Key }).
		Where(fmt.Sprintf("thr%d", i%7), func(e hmts.Element) bool { return e.Val > thr })
}

func runMultiQuery(b *testing.B, shared bool, mode hmts.Mode) {
	b.ReportAllocs()
	data := mqData()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		eng := hmts.New()
		src := eng.Source("src", hmts.Custom(workload.Slice("replay", data), mqRateHz))
		for i := 0; i < mqQueries; i++ {
			if shared {
				i := i
				if err := eng.AddQuery(fmt.Sprintf("q%d", i), nullQuerySink{}, func() (*hmts.Stream, error) {
					return mqChain(src, i), nil
				}); err != nil {
					b.Fatal(err)
				}
			} else {
				mqChain(src, i).Into(fmt.Sprintf("q%d", i), nullQuerySink{})
			}
		}
		b.StartTimer()
		eng.MustRun(hmts.RunConfig{Mode: mode})
		eng.Wait()
		b.StopTimer()
		if err := eng.Err(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(mqElems)*float64(b.N)/b.Elapsed().Seconds(), "srcelems/s")
}

// BenchmarkMultiQuery1000/shared runs 1000 standing queries over one
// subsumed plan; /naive duplicates the plan 1000 times. The headline
// acceptance is shared ≥ 10x the naive throughput. /shared-hmts runs the
// subsumed plan as HMTS places it.
func BenchmarkMultiQuery1000(b *testing.B) {
	b.Run("shared", func(b *testing.B) { runMultiQuery(b, true, hmts.ModePureDI) })
	b.Run("shared-hmts", func(b *testing.B) { runMultiQuery(b, true, hmts.ModeHMTS) })
	b.Run("naive", func(b *testing.B) { runMultiQuery(b, false, hmts.ModePureDI) })
}

// BenchmarkRegisterSimilarQueries measures the marginal cost of the Nth
// similar registration: with the prefix already standing, AddQuery should
// pay only for the divergent operator and its sink — O(divergent ops),
// independent of how many queries are registered.
func BenchmarkRegisterSimilarQueries(b *testing.B) {
	eng := hmts.New()
	src := eng.Source("src", hmts.Replay(mqData()))
	if err := eng.AddQuery("seed", nullQuerySink{}, func() (*hmts.Stream, error) {
		return mqChain(src, 0), nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		n := n
		if err := eng.AddQuery(fmt.Sprintf("r%d", n), nullQuerySink{}, func() (*hmts.Stream, error) {
			return mqChain(src, n), nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
