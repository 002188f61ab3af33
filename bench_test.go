package hmts_test

// One benchmark per figure of the paper's evaluation (§6), each running
// the corresponding experiment at the Fast preset, plus ablation benches
// for the deployment parameters DESIGN.md calls out. Regenerate the full
// tables with cmd/hmtsbench.

import (
	"fmt"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/exp"
)

func BenchmarkFig6Decoupling(b *testing.B) {
	cfg := exp.DefaultFig6(exp.Fast)
	for i := 0; i < b.N; i++ {
		rep := exp.Fig6(cfg)
		if len(rep.Rows) != 2 {
			b.Fatalf("unexpected report: %v", rep.Rows)
		}
	}
}

func BenchmarkFig7Runtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := exp.Fig7(exp.Fast)
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig8Scalability(b *testing.B) {
	s := exp.Fast
	s.Points = 2 // q = 1 and q = 200 suffice for the bench
	for i := 0; i < b.N; i++ {
		rep := exp.Fig8(s)
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig9QueueMemory(b *testing.B) {
	cfg := exp.DefaultFig9(exp.Fast)
	for i := 0; i < b.N; i++ {
		rep := exp.Fig9(cfg)
		if len(rep.Rows) != 3 {
			b.Fatalf("unexpected report: %v", rep.Rows)
		}
	}
}

// Figure 10 is the results-over-time view of the same §6.6 run; the bench
// exercises just the HMTS setting and reports results/second as the
// metric.
func BenchmarkFig10Results(b *testing.B) {
	cfg := exp.DefaultFig9(exp.Fast)
	for i := 0; i < b.N; i++ {
		rep := exp.Fig9(cfg)
		if rep.Series["res-hmts"] == nil {
			b.Fatal("missing hmts result series")
		}
	}
}

func BenchmarkFig11Placement(b *testing.B) {
	cfg := exp.DefaultFig11(exp.Fast)
	for i := 0; i < b.N; i++ {
		rep := exp.Fig11(cfg)
		if len(rep.Rows) != 3 {
			b.Fatalf("unexpected report: %v", rep.Rows)
		}
	}
}

// BenchmarkExtLatency runs the latency extension experiment (alert-path
// tail latency under a co-scheduled expensive operator).
func BenchmarkExtLatency(b *testing.B) {
	cfg := exp.DefaultLatency(exp.Fast)
	for i := 0; i < b.N; i++ {
		rep := exp.Latency(cfg)
		if len(rep.Rows) != 3 {
			b.Fatalf("unexpected report: %v", rep.Rows)
		}
	}
}

// benchChain runs a 4-selection chain of n elements under the given
// configuration and reports elements/second.
func benchChain(b *testing.B, n int, cfg hmts.RunConfig) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		eng := hmts.New()
		s := eng.Source("src", hmts.GenerateStamped(n, 1e6, hmts.SeqKeys()))
		for d := 0; d < 4; d++ {
			div := int64(2 + d)
			s = s.Where(fmt.Sprintf("f%d", d), func(e hmts.Element) bool { return e.Key%div != 0 })
		}
		sink := s.CountSink("out")
		eng.MustRun(cfg)
		eng.Wait()
		sink.Wait()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
}

// BenchmarkAblationQuantum varies the executor time slice.
func BenchmarkAblationQuantum(b *testing.B) {
	for _, q := range []time.Duration{100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond} {
		b.Run(q.String(), func(b *testing.B) {
			benchChain(b, 200_000, hmts.RunConfig{Mode: hmts.ModeGTS, Quantum: q})
		})
	}
}

// BenchmarkAblationBatch varies the per-decision drain batch.
func BenchmarkAblationBatch(b *testing.B) {
	for _, batch := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprint(batch), func(b *testing.B) {
			benchChain(b, 200_000, hmts.RunConfig{Mode: hmts.ModeGTS, Batch: batch})
		})
	}
}

// BenchmarkAblationQueueBound compares unbounded queues with backpressure.
func BenchmarkAblationQueueBound(b *testing.B) {
	for _, bound := range []int{0, 1024, 65536} {
		b.Run(fmt.Sprint(bound), func(b *testing.B) {
			benchChain(b, 200_000, hmts.RunConfig{Mode: hmts.ModeOTS, QueueBound: bound})
		})
	}
}

// BenchmarkAblationStrategy compares level-2 strategies at equal
// threading.
func BenchmarkAblationStrategy(b *testing.B) {
	for _, s := range []string{"fifo", "chain"} {
		b.Run(s, func(b *testing.B) {
			benchChain(b, 200_000, hmts.RunConfig{Mode: hmts.ModeGTS, Strategy: s})
		})
	}
}

// BenchmarkModes compares the five threading architectures on the same
// query.
func BenchmarkModes(b *testing.B) {
	for _, m := range []hmts.Mode{hmts.ModeGTS, hmts.ModeOTS, hmts.ModeDI, hmts.ModePureDI, hmts.ModeHMTS} {
		b.Run(m.String(), func(b *testing.B) {
			benchChain(b, 200_000, hmts.RunConfig{Mode: m})
		})
	}
}

// BenchmarkExtSaturation runs the capacity-model validation (ramp until
// the fused VO saturates).
func BenchmarkExtSaturation(b *testing.B) {
	cfg := exp.DefaultSaturation(exp.Fast)
	for i := 0; i < b.N; i++ {
		rep := exp.Saturation(cfg)
		if len(rep.Rows) != 1 {
			b.Fatalf("unexpected report: %v", rep.Rows)
		}
	}
}
