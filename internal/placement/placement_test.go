package placement

import (
	"fmt"
	"maps"
	"sort"
	"testing"
	"testing/quick"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/vo"
	"github.com/dsms/hmts/internal/xrand"
)

type fakeSource struct{}

func (fakeSource) Run(op.Sink, int) {}
func (fakeSource) Stop()            {}
func (fakeSource) Name() string     { return "fake" }

func filterOp(name string) op.Operator {
	return op.NewFilter(name, func(stream.Element) bool { return true })
}

// mkChain builds src(rate) -> ops with the given costs (sel 1 each).
func mkChain(rate float64, costs ...float64) (*graph.Graph, []*graph.Node) {
	g := graph.New()
	var nodes []*graph.Node
	src := g.AddSource("src", fakeSource{}, rate)
	nodes = append(nodes, src)
	prev := src
	for _, c := range costs {
		n := g.AddOp("f", filterOp("f"), c, 1)
		g.Connect(prev, n, 0)
		nodes = append(nodes, n)
		prev = n
	}
	if err := g.DeriveRates(); err != nil {
		panic(err)
	}
	return g, nodes
}

func TestFFDFusesCheapChain(t *testing.T) {
	// 1000/s: d = 1ms. Costs 10µs each: whole chain fits in one VO.
	g, _ := mkChain(1000, 10_000, 10_000, 10_000)
	cut := FirstFitDecreasing(g)
	if len(cut) != 0 {
		t.Fatalf("cheap chain should fuse entirely, cuts: %v", cut)
	}
}

func TestFFDIsolatesExpensiveOperator(t *testing.T) {
	// d = 1ms; the middle operator alone costs 2ms -> infeasible, must be
	// cut off on both sides.
	g, nodes := mkChain(1000, 10_000, 2_000_000, 10_000)
	cut := FirstFitDecreasing(g)
	heavyIn := graph.EdgeKey{From: nodes[1].ID, To: nodes[2].ID, ToPort: 0}
	heavyOut := graph.EdgeKey{From: nodes[2].ID, To: nodes[3].ID, ToPort: 0}
	if !cut[heavyIn] || !cut[heavyOut] {
		t.Fatalf("expensive operator not isolated: %v", cut)
	}
}

func TestFFDRespectsCombinedCapacity(t *testing.T) {
	// Each op costs 0.6ms at d = 1ms: individually feasible, pairwise
	// not — a queue must separate them.
	g, nodes := mkChain(1000, 600_000, 600_000)
	cut := FirstFitDecreasing(g)
	between := graph.EdgeKey{From: nodes[1].ID, To: nodes[2].ID, ToPort: 0}
	if !cut[between] {
		t.Fatalf("combined-capacity violation not cut: %v", cut)
	}
}

// mkFanOut builds src(rate) -> p(pCost) and p -> one sibling per cost in
// sibs (sel 1 each); it returns the edges p -> sibling.
func mkFanOut(rate, pCost float64, sibs ...float64) (*graph.Graph, []graph.Edge) {
	g := graph.New()
	s := g.AddSource("s", fakeSource{}, rate)
	p := g.AddOp("p", filterOp("p"), pCost, 1)
	g.Connect(s, p, 0)
	var out []graph.Edge
	for _, c := range sibs {
		out = append(out, g.Connect(p, g.AddOp("sib", filterOp("sib"), c, 1), 0))
	}
	if err := g.DeriveRates(); err != nil {
		panic(err)
	}
	return g, out
}

// componentsErr describes the first way the components of cut fail to be
// connected and to cover every source and operator exactly once.
func componentsErr(g *graph.Graph, cut map[graph.EdgeKey]bool) string {
	seen := map[int]bool{}
	for _, comp := range g.Components(cut) {
		if !g.UndirectedConnected(comp) {
			return fmt.Sprintf("disconnected component %v", comp)
		}
		for _, id := range comp {
			if seen[id] {
				return fmt.Sprintf("node %d in two components", id)
			}
			seen[id] = true
		}
	}
	for _, node := range g.Nodes() {
		if node.Kind != graph.KindSink && !seen[node.ID] {
			return fmt.Sprintf("node %d in no component", node.ID)
		}
	}
	return ""
}

func TestFFDCheapSiblingsJoinProducer(t *testing.T) {
	// src(1000/s) -> a; a -> b and a -> c, all 1µs: one VO, no queue.
	g, _ := mkFanOut(1000, 1000, 1000, 1000)
	cut := FirstFitDecreasing(g)
	if len(cut) != 0 {
		t.Fatalf("cheap siblings should share their producer's VO, cuts: %v", cut)
	}
	if comps := g.Components(cut); len(comps) != 1 {
		t.Fatalf("want one VO, got %v", comps)
	}
}

func TestFFDStallMixKeepsCostlyBranchesCut(t *testing.T) {
	// The stall-mix shape: a 200k/s source feeds a cheap filter (the
	// builder's 200ns, sel 0.5 hint) and two 2µs CostSim branches. A
	// branch's load 0.4 is ten times the filter's 0.04, so it keeps its
	// own thread and cannot stall the cheap path — in whichever order the
	// branches are declared, so whichever consumer is visited first.
	for cheapAt := 0; cheapAt <= 2; cheapAt++ {
		g := graph.New()
		s := g.AddSource("s", fakeSource{}, 200_000)
		var cheapIn graph.Edge
		var costly []graph.Edge
		for i := 0; i < 3; i++ {
			if i == cheapAt {
				cheapIn = g.Connect(s, g.AddOp("cheap", filterOp("cheap"), 200, 0.5), 0)
				continue
			}
			n := g.AddOp("costsim", op.NewCostSim("costsim", 2000, nil), 2000, 1)
			costly = append(costly, g.Connect(s, n, 0))
		}
		if err := g.DeriveRates(); err != nil {
			t.Fatal(err)
		}
		cut := FirstFitDecreasing(g)
		for _, e := range costly {
			if !cut[e.Key()] {
				t.Fatalf("cheap filter declared %d of 3: costly branch edge %v fused: %v", cheapAt+1, e.Key(), cut)
			}
		}
		if cut[cheapIn.Key()] {
			t.Fatalf("cheap filter declared %d of 3: it should stay in the source's VO: %v", cheapAt+1, cut)
		}
	}
}

func TestFFDSiblingBoundIgnoresFusedSiblings(t *testing.T) {
	// src(200k/s) -> p (100ns, load 0.02) -> ten 200ns siblings (0.04
	// each) declared before one 2µs sibling (0.4). Once the ten are fused
	// the VO carries 0.42, but the costly sibling is weighed against the
	// bound load(p) + 0.04, not against what the others built up.
	costs := make([]float64, 11)
	for i := range costs {
		costs[i] = 200
	}
	costs[10] = 2000
	g, sibs := mkFanOut(200_000, 100, costs...)
	cut := FirstFitDecreasing(g)
	for _, e := range sibs[:10] {
		if cut[e.Key()] {
			t.Fatalf("cheap sibling edge %v cut: %v", e.Key(), cut)
		}
	}
	if !cut[sibs[10].Key()] {
		t.Fatalf("the costly sibling joined behind the cheap ones: %v", cut)
	}
}

func TestFFDSiblingBoundCoversBranches(t *testing.T) {
	// src(200k/s) -> a and b, both 200ns filters; b -> c, a 2µs CostSim.
	// b may share the source's VO beside a, but c may not follow it
	// there: a would wait behind c's 2µs for every element.
	g := graph.New()
	s := g.AddSource("s", fakeSource{}, 200_000)
	a := g.AddOp("a", filterOp("a"), 200, 1)
	b := g.AddOp("b", filterOp("b"), 200, 1)
	c := g.AddOp("c", op.NewCostSim("c", 2000, nil), 2000, 1)
	aIn := g.Connect(s, a, 0)
	bIn := g.Connect(s, b, 0)
	cIn := g.Connect(b, c, 0)
	if err := g.DeriveRates(); err != nil {
		t.Fatal(err)
	}
	cut := FirstFitDecreasing(g)
	if cut[aIn.Key()] || cut[bIn.Key()] {
		t.Fatalf("the cheap siblings should share the source's VO: %v", cut)
	}
	if !cut[cIn.Key()] {
		t.Fatalf("the costly operator below a sibling joined its VO: %v", cut)
	}
}

func TestFFDFanOutJoinsStopAtOneCore(t *testing.T) {
	// src(100k/s) -> p (100ns, load 0.01) -> twelve 1µs siblings of load
	// 0.1 each: nine fit beside p (0.91), a tenth would pass 1.
	costs := make([]float64, 12)
	for i := range costs {
		costs[i] = 1000
	}
	g, sibs := mkFanOut(100_000, 100, costs...)
	cut := FirstFitDecreasing(g)
	fused := 0
	for _, e := range sibs {
		if !cut[e.Key()] {
			fused++
		}
	}
	if fused != 9 {
		t.Fatalf("%d siblings fused, want 9: %v", fused, cut)
	}
	for _, comp := range g.Components(cut) {
		if l := vo.Of(g, comp).Load; l > 1 {
			t.Fatalf("component %v has load %.3f > 1", comp, l)
		}
	}
}

func TestFFDFanOutComponentsConnectedAndDisjoint(t *testing.T) {
	// Two producers on one source, each with cheap siblings, one costly
	// sibling, and a join across the two fan-outs.
	g := graph.New()
	s := g.AddSource("s", fakeSource{}, 10_000)
	a := g.AddOp("a", filterOp("a"), 1000, 1)
	b := g.AddOp("b", filterOp("b"), 1000, 1)
	g.Connect(s, a, 0)
	g.Connect(s, b, 0)
	a1 := g.AddOp("a1", filterOp("a1"), 500, 1)
	a2 := g.AddOp("a2", filterOp("a2"), 90_000, 1)
	b1 := g.AddOp("b1", filterOp("b1"), 500, 1)
	j := g.AddOp("j", filterOp("j"), 500, 1)
	g.Connect(a, a1, 0)
	costly := g.Connect(a, a2, 0)
	g.Connect(b, b1, 0)
	g.Connect(a1, j, 0)
	g.Connect(b1, j, 1)
	if err := g.DeriveRates(); err != nil {
		t.Fatal(err)
	}
	cut := FirstFitDecreasing(g)
	if err := componentsErr(g, cut); err != "" {
		t.Fatal(err)
	}
	if !cut[costly.Key()] {
		t.Fatalf("the costly sibling a2 must be cut: %v", cut)
	}
	if len(g.Components(cut)) != 2 {
		t.Fatalf("want the costly sibling alone beside one VO, got %v", g.Components(cut))
	}
}

func TestFFDNeverFusesBothEndsOfADiamond(t *testing.T) {
	// src -> p; p -> a (cheap) and p -> b (costly); a and b -> j. Fusing
	// p, a and j while b keeps its own thread would make a VO that feeds
	// itself through b's queues; b must be cut and j kept apart from p.
	g := graph.New()
	s := g.AddSource("s", fakeSource{}, 100_000)
	p := g.AddOp("p", filterOp("p"), 100, 1)
	a := g.AddOp("a", filterOp("a"), 100, 1)
	b := g.AddOp("b", filterOp("b"), 8000, 1)
	j := g.AddOp("j", filterOp("j"), 100, 1)
	g.Connect(s, p, 0)
	g.Connect(p, a, 0)
	costly := g.Connect(p, b, 0)
	g.Connect(a, j, 0)
	g.Connect(b, j, 1)
	if err := g.DeriveRates(); err != nil {
		t.Fatal(err)
	}
	if cut := paperFFD(g); voGraphAcyclic(g, cut) {
		t.Fatalf("the paper's algorithm was expected to fuse the diamond's ends: %v", cut)
	}
	cut := FirstFitDecreasing(g)
	if !cut[costly.Key()] {
		t.Fatalf("the costly branch must be cut: %v", cut)
	}
	if !voGraphAcyclic(g, cut) {
		t.Fatalf("a VO feeds itself through another: %v", g.Components(cut))
	}
}

// voGraphAcyclic reports whether the VOs of cut, linked by the cut edges
// between them, form a DAG.
func voGraphAcyclic(g *graph.Graph, cut map[graph.EdgeKey]bool) bool {
	comps := g.Components(cut)
	voOf := map[int]int{}
	for i, c := range comps {
		for _, id := range c {
			voOf[id] = i
		}
	}
	succ := make([]map[int]bool, len(comps))
	indeg := make([]int, len(comps))
	for i := range succ {
		succ[i] = map[int]bool{}
	}
	for k := range cut {
		a, b := voOf[k.From], voOf[k.To]
		if a != b && !succ[a][b] {
			succ[a][b] = true
			indeg[b]++
		}
	}
	var free []int
	for i, d := range indeg {
		if d == 0 {
			free = append(free, i)
		}
	}
	left := len(comps)
	for len(free) > 0 {
		v := free[len(free)-1]
		free = free[:len(free)-1]
		left--
		for w := range succ[v] {
			if indeg[w]--; indeg[w] == 0 {
				free = append(free, w)
			}
		}
	}
	return left == 0
}

// Property over random DAGs: every FFD component is connected, covers all
// source+op nodes exactly once, no VO feeds itself through another, and
// every multi-node component needs at most one core (load ≤ 1). A
// multi-node component in which no member feeds two members has
// non-negative capacity (the Algorithm 1 constraint — single infeasible
// nodes are allowed to be negative alone).
func TestFFDInvariantsOnRandomDAGs(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := 10 + int(nRaw%80)
		g := RandomDAG(DefaultDAGConfig(n), seed)
		cut := FirstFitDecreasing(g)
		if err := componentsErr(g, cut); err != "" {
			t.Log(err)
			return false
		}
		if !voGraphAcyclic(g, cut) {
			t.Log("cyclic VO graph")
			return false
		}
		for _, comp := range g.Components(cut) {
			if len(comp) < 2 {
				continue
			}
			v := vo.Of(g, comp)
			if v.Load > 1+1e-9 {
				return false
			}
			if !feedsTwoMembers(g, comp) && v.Cap() < -1e-6 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// feedsTwoMembers reports whether some member of comp has out-edges to
// two distinct members.
func feedsTwoMembers(g *graph.Graph, comp []int) bool {
	in := map[int]bool{}
	for _, id := range comp {
		in[id] = true
	}
	for _, id := range comp {
		to := map[int]bool{}
		for _, e := range g.OutEdges(id) {
			if in[e.To] {
				to[e.To] = true
			}
		}
		if len(to) > 1 {
			return true
		}
	}
	return false
}

// TestFFDMatchesPaperAlgorithmWithoutFanOut is the oracle: on graphs where
// no producer feeds two operators only the paper's chain case arises, so
// the cut must equal that of Algorithm 1 as the paper states it
// (paperFFD below).
func TestFFDMatchesPaperAlgorithmWithoutFanOut(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		g := fanOutFreeDAG(10+int(nRaw%120), seed)
		got, want := FirstFitDecreasing(g), paperFFD(g)
		if !maps.Equal(got, want) {
			t.Logf("seed %d: cut %v, paper algorithm %v", seed, got, want)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fanOutFreeDAG draws a random in-forest: every operator takes one or two
// inputs (sometimes one producer on two ports) among the nodes nothing
// consumes yet, so no producer feeds two operators. Costs and rates span
// the ranges of DefaultDAGConfig, so both merges and cuts occur.
func fanOutFreeDAG(nodes int, seed uint64) *graph.Graph {
	cfg := DefaultDAGConfig(nodes)
	rng := xrand.New(seed)
	g := graph.New()
	var free []*graph.Node // nodes nothing consumes yet
	take := func() *graph.Node {
		i := rng.Intn(len(free))
		n := free[i]
		free = append(free[:i], free[i+1:]...)
		return n
	}
	nSrc := max(1, nodes/8)
	for i := 0; i < nSrc; i++ {
		free = append(free, g.AddSource("src", nil, rng.Uniform(cfg.RateLoHz, cfg.RateHiHz)))
	}
	for i := nSrc; i < nodes; i++ {
		n := g.AddOp("op", nil, logUniform(rng, cfg.CostLoNS, cfg.CostHiNS), rng.Uniform(cfg.SelLo, cfg.SelHi))
		a := take()
		g.Connect(a, n, 0)
		switch {
		case rng.Bool(0.1):
			g.Connect(a, n, 1)
		case len(free) > 0 && rng.Bool(0.3):
			g.Connect(take(), n, 1)
		}
		free = append(free, n)
	}
	if err := g.DeriveRates(); err != nil {
		panic(err)
	}
	return g
}

// paperFFD is Algorithm 1 as the paper states it, the placement before
// fan-out joins: each operator absorbs the partitions led by its direct
// predecessors in descending capacity order while cap(P) ≥ 0, and a
// predecessor absorbed by one consumer is cut from every other.
func paperFFD(g *graph.Graph) map[graph.EdgeKey]bool {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	cut := make(map[graph.EdgeKey]bool)
	unit := make(map[int]vo.VO, g.Len())
	absorbed := make(map[int]bool)
	for _, n := range order {
		if n.Kind == graph.KindSink {
			continue
		}
		unit[n.ID] = vo.Of(g, []int{n.ID})
	}
	for _, n := range order {
		if n.Kind != graph.KindOp {
			continue
		}
		cur := unit[n.ID]
		var preds []int
		seen := make(map[int]bool)
		for _, e := range g.InEdges(n.ID) {
			if !seen[e.From] {
				seen[e.From] = true
				preds = append(preds, e.From)
			}
		}
		sort.Slice(preds, func(i, j int) bool {
			ci, cj := unit[preds[i]].Cap(), unit[preds[j]].Cap()
			if ci != cj {
				return ci > cj
			}
			return preds[i] < preds[j]
		})
		joined := make(map[int]bool)
		for _, p := range preds {
			if absorbed[p] {
				continue
			}
			if vo.MergedCap(cur, unit[p]) >= 0 {
				cur = vo.Merge(cur, unit[p])
				absorbed[p] = true
				joined[p] = true
			}
		}
		unit[n.ID] = cur
		for _, e := range g.InEdges(n.ID) {
			if !joined[e.From] {
				cut[e.Key()] = true
			}
		}
	}
	return cut
}

func TestSegmentGroupsMonotoneCosts(t *testing.T) {
	// Non-increasing costs along a chain form one segment; a cost
	// increase starts a new one.
	g, nodes := mkChain(1000, 300, 200, 100, 500, 400)
	cut := Segment(g)
	edge := func(i int) graph.EdgeKey {
		return graph.EdgeKey{From: nodes[i].ID, To: nodes[i+1].ID, ToPort: 0}
	}
	if cut[edge(1)] || cut[edge(2)] {
		t.Fatalf("monotone run should not be cut: %v", cut)
	}
	if !cut[edge(3)] {
		t.Fatalf("cost increase 100->500 must start a new segment: %v", cut)
	}
	if cut[edge(4)] {
		t.Fatalf("500->400 continues the segment: %v", cut)
	}
	if !cut[edge(0)] {
		t.Fatalf("source edge must be cut by Segment: %v", cut)
	}
}

func TestChainCutsAtEnvelopeBoundaries(t *testing.T) {
	// Cheap selective op then expensive flat op: two envelope segments.
	g := graph.New()
	s := g.AddSource("s", fakeSource{}, 1000)
	a := g.AddOp("a", filterOp("a"), 10, 1)
	b := g.AddOp("b", filterOp("b"), 10, 0.01)
	c := g.AddOp("c", filterOp("c"), 100_000, 0.5)
	e0 := g.Connect(s, a, 0)
	e1 := g.Connect(a, b, 0)
	e2 := g.Connect(b, c, 0)
	if err := g.DeriveRates(); err != nil {
		t.Fatal(err)
	}
	cut := Chain(g)
	if !cut[e0.Key()] {
		t.Fatalf("chain head input must be cut: %v", cut)
	}
	if cut[e1.Key()] {
		t.Fatalf("a and b share the steep segment: %v", cut)
	}
	if !cut[e2.Key()] {
		t.Fatalf("segment boundary b|c must be cut: %v", cut)
	}
}

func TestCutHelpers(t *testing.T) {
	g, nodes := mkChain(1000, 10, 10)
	k := g.AddSink("k", op.NewNull(1))
	g.Connect(nodes[len(nodes)-1], k, 0)

	// src->f1 and f1->f2 are cut; the sink edge never is.
	all := CutAll(g)
	if len(all) != 2 {
		t.Fatalf("CutAll: %v", all)
	}
	srcs := CutSources(g)
	if len(srcs) != 1 {
		t.Fatalf("CutSources: %v", srcs)
	}
	if len(CutNone(g)) != 0 {
		t.Fatal("CutNone should be empty")
	}
}

func TestRandomDAGDeterministicAndAcyclic(t *testing.T) {
	a := RandomDAG(DefaultDAGConfig(60), 5)
	b := RandomDAG(DefaultDAGConfig(60), 5)
	if a.Len() != b.Len() {
		t.Fatal("same seed, different graphs")
	}
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("same seed, different edges")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed, different edge sets")
		}
	}
	if _, err := a.TopoOrder(); err != nil {
		t.Fatalf("random DAG has a cycle: %v", err)
	}
	// Rates must be derived and positive on all reachable ops.
	for _, n := range a.Ops() {
		if len(a.InEdges(n.ID)) > 0 && n.RateHz <= 0 {
			t.Fatalf("op %d has no derived rate", n.ID)
		}
	}
}

func TestRandomDAGSeedsDiffer(t *testing.T) {
	a := RandomDAG(DefaultDAGConfig(60), 1)
	b := RandomDAG(DefaultDAGConfig(60), 2)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) == len(eb) {
		same := true
		for i := range ea {
			if ea[i] != eb[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}
