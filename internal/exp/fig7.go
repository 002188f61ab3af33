package exp

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/sched"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/workload"
)

// fig7Selectivities are the five selection selectivities of §6.4/§6.5.
var fig7Selectivities = [5]float64{0.998, 0.996, 0.994, 0.992, 0.990}

// selChain appends the paper's 5-selection chain to g downstream of from,
// ending in a counting sink, and returns the sink. Each selection hashes
// the key with its own salt so selectivities are independent and exact in
// expectation.
func selChain(g *graph.Graph, from *graph.Node, salt uint64) *op.Counter {
	prev := from
	for i, sel := range fig7Selectivities {
		s := sel
		saltI := salt + uint64(i)*0x9e3779b97f4a7c15
		f := op.NewFilter(fmt.Sprintf("sel%d", i), func(e stream.Element) bool {
			return hashFrac(uint64(e.Key), saltI) < s
		})
		n := g.AddOp(f.Name(), f, 50, s)
		g.Connect(prev, n, 0)
		prev = n
	}
	sink := op.NewCounter(1)
	nk := g.AddSink("count", sink)
	g.Connect(prev, nk, 0)
	return sink
}

// hashFrac maps (key, salt) to a uniform fraction in [0, 1).
func hashFrac(key, salt uint64) float64 {
	z := key ^ salt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// fig7Graph builds the §6.4 query: one source of m elements into the
// 5-selection chain.
func fig7Graph(m int, seed uint64) (*graph.Graph, *op.Counter) {
	g := graph.New()
	src := workload.New("src", m, workload.UniformKeys(0, 1_000_000, seed),
		workload.FixedRate{Hz: 500_000}, nil /* stamped: flat out */)
	ns := g.AddSource("src", src, 500_000)
	sink := selChain(g, ns, seed*7+1)
	if err := g.DeriveRates(); err != nil {
		panic(err)
	}
	return g, sink
}

// runOnce deploys g under plan and returns the wall time from Start to
// completion.
func runOnce(g *graph.Graph, plan sched.Plan, opts sched.Options) time.Duration {
	d, err := sched.Build(g, plan, opts)
	if err != nil {
		panic(err)
	}
	start := time.Now()
	d.Start()
	d.Wait()
	return time.Since(start)
}

// Fig7 reproduces §6.4: runtime of the 5-selection query under DI, OTS and
// GTS (Chain and FIFO strategies) as the element count m grows. The paper
// finds DI fastest (about 40% faster than OTS), OTS clearly ahead of GTS.
func Fig7(s Scale) *Report {
	r := &Report{
		Name:    "fig7",
		Title:   "Runtime for a simple query using GTS, OTS and DI",
		Headers: []string{"m", "di_ms", "ots_ms", "gts_chain_ms", "gts_fifo_ms", "ots/di", "gts_chain/di"},
	}
	var ms []int
	for m := 100_000; m <= 1_000_000; m += 100_000 {
		ms = append(ms, int(float64(m)/maxF(s.SizeScale, 1)))
	}
	ms = thin(ms, s.Points)
	for _, m := range ms {
		// One run is tens of milliseconds at Fast scale, as short as the
		// host's scheduling noise, so each cell is the median of
		// fig7Reps runs, interleaved across the settings so that a slow
		// spell of the host does not land on one setting only.
		var runs [4][fig7Reps]time.Duration
		for i := 0; i < fig7Reps; i++ {
			runs[0][i] = timedRun(m, 1, func(g *graph.Graph) sched.Plan { return sched.DI(g) }, "")
			runs[1][i] = timedRun(m, 1, func(g *graph.Graph) sched.Plan { return sched.OTS(g) }, "")
			runs[2][i] = timedRun(m, 1, func(g *graph.Graph) sched.Plan { return sched.GTS(g) }, "chain")
			runs[3][i] = timedRun(m, 1, func(g *graph.Graph) sched.Plan { return sched.GTS(g) }, "fifo")
		}
		di, ots, gtsChain, gtsFIFO := median(runs[0][:]), median(runs[1][:]),
			median(runs[2][:]), median(runs[3][:])
		r.AddRow(fmt.Sprint(m),
			fmtMS(di), fmtMS(ots), fmtMS(gtsChain), fmtMS(gtsFIFO),
			f2(ratio(ots, di)), f2(ratio(gtsChain, di)))
	}
	r.AddNote("paper: DI ~40%% faster than OTS; OTS significantly faster than GTS (multicore); FIFO ~= Chain")
	return r
}

// fig7Reps is how many runs of each setting a Figure 7 cell is the
// median of.
const fig7Reps = 5

// median returns the median of xs, reordering xs.
func median[T cmp.Ordered](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// timedRun builds q copies of the 5-selection query and measures total
// completion time under the plan.
func timedRun(m, q int, mkPlan func(*graph.Graph) sched.Plan, strategy string) time.Duration {
	g := graph.New()
	var sinks []*op.Counter
	for i := 0; i < q; i++ {
		src := workload.New(fmt.Sprintf("src%d", i), m,
			workload.UniformKeys(0, 1_000_000, uint64(i)+3), workload.FixedRate{Hz: 500_000}, nil)
		ns := g.AddSource(src.Name(), src, 500_000)
		sinks = append(sinks, selChain(g, ns, uint64(i)*131+7))
	}
	if err := g.DeriveRates(); err != nil {
		panic(err)
	}
	dur := runOnce(g, mkPlan(g), sched.Options{Strategy: strategy})
	for _, s := range sinks {
		s.Wait()
	}
	return dur
}

// Fig8 reproduces §6.5: the same query replicated q = 1…200 times at
// m = 100k elements each, comparing OTS and DI total runtime. The paper
// finds DI's advantage growing with the number of queries.
func Fig8(s Scale) *Report {
	r := &Report{
		Name:    "fig8",
		Title:   "Varying the number of queries: OTS vs DI",
		Headers: []string{"queries", "di_ms", "ots_ms", "ots/di"},
	}
	m := int(100_000 / maxF(s.SizeScale, 1))
	qs := []int{1, 25, 50, 75, 100, 125, 150, 175, 200}
	qs = thin(qs, s.Points)
	for _, q := range qs {
		di := timedRun(m, q, func(g *graph.Graph) sched.Plan { return sched.DI(g) }, "")
		ots := timedRun(m, q, func(g *graph.Graph) sched.Plan { return sched.OTS(g) }, "")
		r.AddRow(fmt.Sprint(q), fmtMS(di), fmtMS(ots), f2(ratio(ots, di)))
	}
	r.AddNote("paper: the more queries run, the bigger DI's advantage; OTS works only while the thread count stays moderate")
	return r
}

func fmtMS(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/1e6) }

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
