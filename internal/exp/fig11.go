package exp

import (
	"fmt"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/placement"
	"github.com/dsms/hmts/internal/vo"
)

// Fig11Config parameterizes the §6.7 VO-construction comparison: the three
// placement algorithms run on seeded random DAGs of growing size and the
// average negative capacity (stall pressure) and average positive capacity
// (unused headroom) of the resulting virtual operators are compared.
type Fig11Config struct {
	Sizes []int // node counts (paper: 10 … 1000)
	Seeds int   // random graphs per size
}

// DefaultFig11 maps a scale to the sweep.
func DefaultFig11(s Scale) Fig11Config {
	sizes := []int{10, 20, 50, 100, 200, 500, 1000}
	seeds := 10
	if s.Points > 0 {
		sizes = thin(sizes, s.Points+2)
	}
	if s.TimeScale > 40 {
		seeds = 3
	}
	return Fig11Config{Sizes: sizes, Seeds: seeds}
}

// fig11Algorithms are the three VO constructions of §6.7.
var fig11Algorithms = []struct {
	name string
	cut  func(*graph.Graph) map[graph.EdgeKey]bool
}{
	{"ffd (alg.1)", placement.FirstFitDecreasing},
	{"segment", placement.Segment},
	{"chain", placement.Chain},
}

// Fig11 runs the comparison and reports per algorithm the VO count and the
// average negative/positive capacities in milliseconds over all graphs.
// Pure-source components are excluded — they are inputs, not VOs.
func Fig11(cfg Fig11Config) *Report {
	r := &Report{
		Name:    "fig11",
		Title:   "Negative and positive capacities of three VO constructions (random DAGs)",
		Headers: []string{"algorithm", "graphs", "avg_vos", "neg_vos", "avg_neg_cap_ms", "avg_pos_cap_ms"},
	}
	for _, alg := range fig11Algorithms {
		var all []vo.VO
		graphs := 0
		for _, n := range cfg.Sizes {
			for s := 0; s < cfg.Seeds; s++ {
				g := placement.RandomDAG(placement.DefaultDAGConfig(n), uint64(n*1000+s))
				cut := alg.cut(g)
				for _, comp := range g.Components(cut) {
					if hasOp(g, comp) {
						all = append(all, vo.Of(g, comp))
					}
				}
				graphs++
			}
		}
		sum := vo.Summarize(all)
		r.AddRow(alg.name, fmt.Sprint(graphs),
			f2(float64(sum.VOs)/float64(graphs)),
			fmt.Sprint(sum.Negative),
			f2(sum.AvgNegative/1e6), f2(sum.AvgPositive/1e6))
	}
	r.AddNote("paper: all three produce few, underutilized VOs but differ strongly in average negative capacity; Algorithm 1 (ffd) performs best because it is the only one that respects the cap(P) >= 0 constraint")
	r.AddNote("ffd also fuses cheap siblings of one producer while load(P) <= 1 (see package vo); such a VO reads a negative cap(P), since d(P) counts each sibling's input as its own arrival stream")
	return r
}

func hasOp(g *graph.Graph, ids []int) bool {
	for _, id := range ids {
		if g.Node(id).Kind == graph.KindOp {
			return true
		}
	}
	return false
}
