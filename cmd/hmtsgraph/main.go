// Command hmtsgraph inspects queue placement: it generates a random query
// graph (as in the §6.7 experiment), runs the selected VO-construction
// algorithm, and prints the resulting virtual operators with their
// capacities plus an optional Graphviz rendering with queue edges dashed.
//
// Usage:
//
//	hmtsgraph -n 50 -seed 7 -alg ffd
//	hmtsgraph -n 30 -alg chain -dot > graph.dot
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/placement"
	"github.com/dsms/hmts/internal/vo"
)

func main() {
	var (
		n    = flag.Int("n", 30, "number of nodes in the random graph")
		seed = flag.Uint64("seed", 1, "generator seed")
		alg  = flag.String("alg", "ffd", "placement algorithm: ffd, segment, chain, all, none")
		dot  = flag.Bool("dot", false, "emit Graphviz dot instead of the text summary")
	)
	flag.Parse()

	g := placement.RandomDAG(placement.DefaultDAGConfig(*n), *seed)
	algos := map[string]func(*graph.Graph) map[graph.EdgeKey]bool{
		"ffd":     placement.FirstFitDecreasing,
		"segment": placement.Segment,
		"chain":   placement.Chain,
		"none":    placement.CutAll,
	}
	names := []string{*alg}
	if *alg == "all" {
		names = []string{"ffd", "segment", "chain"}
	}
	for _, name := range names {
		cutFn, ok := algos[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", name)
			os.Exit(2)
		}
		cut := cutFn(g)
		if *dot {
			fmt.Print(g.DOT(cut))
			continue
		}
		comps := g.Components(cut)
		vos := make([]vo.VO, 0, len(comps))
		for _, c := range comps {
			vos = append(vos, vo.Of(g, c))
		}
		sort.Slice(vos, func(i, j int) bool { return vos[i].Cap() < vos[j].Cap() })
		fmt.Printf("== %s: %d nodes, %d queues, %d virtual operators ==\n", name, g.Len(), len(cut), len(vos))
		for _, v := range vos {
			fmt.Printf("  nodes=%-24v c(P)=%9.0fns  d(P)=%9.0fns  cap=%10.0fns  load=%6.2f\n",
				v.Nodes, v.CNS, v.DNS(), v.Cap(), v.Load)
		}
		sum := vo.Summarize(vos)
		fmt.Printf("  summary: %d stalling VOs, avg negative %.2fms, avg positive %.2fms\n\n",
			sum.Negative, sum.AvgNegative/1e6, sum.AvgPositive/1e6)
	}
}
