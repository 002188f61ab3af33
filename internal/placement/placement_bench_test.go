package placement

import (
	"fmt"
	"testing"
)

// BenchmarkPlacement measures the planning cost of each VO construction on
// random DAGs — relevant because the adaptive controller re-runs placement
// at runtime.
func BenchmarkPlacement(b *testing.B) {
	for _, n := range []int{100, 1000} {
		g := RandomDAG(DefaultDAGConfig(n), 1)
		for _, alg := range []struct {
			name string
			run  func() int
		}{
			{"ffd", func() int { return len(FirstFitDecreasing(g)) }},
			{"segment", func() int { return len(Segment(g)) }},
			{"chain", func() int { return len(Chain(g)) }},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", alg.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if alg.run() == 0 {
						b.Fatal("no cuts on a random DAG is implausible")
					}
				}
			})
		}
	}
}

func BenchmarkRandomDAG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomDAG(DefaultDAGConfig(200), uint64(i))
	}
}

// BenchmarkFFDFanOut measures FirstFitDecreasing on one producer with
// thousands of cheap consumers, all of which join its VO: each join must
// cost O(1), not the size of the VO grown so far.
func BenchmarkFFDFanOut(b *testing.B) {
	for _, sibs := range []int{1000, 4000} {
		costs := make([]float64, sibs)
		for i := range costs {
			costs[i] = 100
		}
		g, _ := mkFanOut(1000, 100, costs...)
		b.Run(fmt.Sprintf("sibs=%d", sibs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(FirstFitDecreasing(g)) != 0 {
					b.Fatal("every sibling should join the producer's VO")
				}
			}
		})
	}
}
