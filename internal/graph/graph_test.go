package graph

import (
	"strings"
	"testing"

	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stream"
)

// fakeSource satisfies op.Source for structural tests.
type fakeSource struct{}

func (fakeSource) Run(op.Sink, int) {}
func (fakeSource) Stop()            {}
func (fakeSource) Name() string     { return "fake" }

func filterOp(name string) op.Operator {
	return op.NewFilter(name, func(stream.Element) bool { return true })
}

// chain builds src -> f0 -> f1 -> ... -> sink and returns the graph and
// its nodes.
func chain(nOps int) (*Graph, []*Node) {
	g := New()
	var nodes []*Node
	src := g.AddSource("src", fakeSource{}, 1000)
	nodes = append(nodes, src)
	prev := src
	for i := 0; i < nOps; i++ {
		n := g.AddOp("f", filterOp("f"), 100, 0.5)
		g.Connect(prev, n, 0)
		nodes = append(nodes, n)
		prev = n
	}
	sink := g.AddSink("out", op.NewNull(1))
	g.Connect(prev, sink, 0)
	nodes = append(nodes, sink)
	return g, nodes
}

func TestValidateOK(t *testing.T) {
	g, _ := chain(3)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	// Unconnected source.
	g := New()
	g.AddSource("s", fakeSource{}, 1)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "feeds nothing") {
		t.Fatalf("want feeds-nothing error, got %v", err)
	}

	// Unconnected op input port.
	g2 := New()
	s2 := g2.AddSource("s", fakeSource{}, 1)
	j := g2.AddOp("join", op.NewSHJ("join", 100, nil), 100, 1)
	g2.Connect(s2, j, 0) // port 1 left dangling
	k := g2.AddSink("k", op.NewNull(1))
	g2.Connect(j, k, 0)
	if err := g2.Validate(); err == nil || !strings.Contains(err.Error(), "port 1 unconnected") {
		t.Fatalf("want unconnected-port error, got %v", err)
	}

	// Double edge into one port.
	g3 := New()
	a := g3.AddSource("a", fakeSource{}, 1)
	b := g3.AddSource("b", fakeSource{}, 1)
	f := g3.AddOp("f", filterOp("f"), 1, 1)
	g3.Connect(a, f, 0)
	g3.Connect(b, f, 0)
	k3 := g3.AddSink("k", op.NewNull(1))
	g3.Connect(f, k3, 0)
	if err := g3.Validate(); err == nil || !strings.Contains(err.Error(), "merge with a Union") {
		t.Fatalf("want double-edge error, got %v", err)
	}

	// Sink receiving nothing.
	g4, _ := chain(1)
	g4.AddSink("lonely", op.NewNull(1))
	if err := g4.Validate(); err == nil || !strings.Contains(err.Error(), "receives nothing") {
		t.Fatalf("want lonely-sink error, got %v", err)
	}
}

func TestConnectPanics(t *testing.T) {
	g := New()
	s := g.AddSource("s", fakeSource{}, 1)
	k := g.AddSink("k", op.NewNull(1))
	for _, fn := range []func(){
		func() { g.Connect(k, s, 0) },   // out of sink AND into source
		func() { g.Connect(nil, s, 0) }, // nil
		func() { other := New().AddSource("x", fakeSource{}, 1); g.Connect(other, k, 0) }, // foreign
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTopoOrder(t *testing.T) {
	g, nodes := chain(4)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, n := range order {
		pos[n.ID] = i
	}
	for i := 0; i < len(nodes)-1; i++ {
		if pos[nodes[i].ID] >= pos[nodes[i+1].ID] {
			t.Fatalf("topological order violated between %d and %d", nodes[i].ID, nodes[i+1].ID)
		}
	}
}

func TestDeriveRates(t *testing.T) {
	g := New()
	s := g.AddSource("s", fakeSource{}, 1000)
	f1 := g.AddOp("f1", filterOp("f1"), 100, 0.5)
	f2 := g.AddOp("f2", filterOp("f2"), 100, 0.2)
	u := g.AddOp("u", op.NewUnion("u", 2), 10, 1)
	k := g.AddSink("k", op.NewNull(1))
	g.Connect(s, f1, 0)
	g.Connect(s, f2, 0)
	g.Connect(f1, u, 0)
	g.Connect(f2, u, 1)
	g.Connect(u, k, 0)
	if err := g.DeriveRates(); err != nil {
		t.Fatal(err)
	}
	if f1.RateHz != 1000 || f2.RateHz != 1000 {
		t.Fatalf("filter input rates %v/%v", f1.RateHz, f2.RateHz)
	}
	if u.RateHz != 1000*0.5+1000*0.2 {
		t.Fatalf("union input rate %v, want 700", u.RateHz)
	}
	if d := f1.DNS(); d != 1e6 {
		t.Fatalf("d(f1) = %v ns, want 1e6", d)
	}
	var zero Node
	if zero.DNS() < 1e300 {
		t.Fatal("zero-rate DNS should be effectively infinite")
	}
}

func TestComponentsRespectCut(t *testing.T) {
	g, nodes := chain(3) // src f f f sink
	// No cuts: one component with source + 3 ops (sink excluded).
	comps := g.Components(map[EdgeKey]bool{})
	if len(comps) != 1 || len(comps[0]) != 4 {
		t.Fatalf("uncut components: %v", comps)
	}
	// Cut the middle op-op edge.
	cut := map[EdgeKey]bool{{From: nodes[2].ID, To: nodes[3].ID, ToPort: 0}: true}
	comps = g.Components(cut)
	if len(comps) != 2 {
		t.Fatalf("cut components: %v", comps)
	}
}

func TestUndirectedConnected(t *testing.T) {
	g, nodes := chain(3)
	ids := []int{nodes[1].ID, nodes[2].ID}
	if !g.UndirectedConnected(ids) {
		t.Fatal("adjacent ops reported disconnected")
	}
	if g.UndirectedConnected([]int{nodes[1].ID, nodes[3].ID}) {
		t.Fatal("non-adjacent ops reported connected")
	}
	if !g.UndirectedConnected(nil) {
		t.Fatal("empty set should be connected")
	}
}

func TestChainsDecomposition(t *testing.T) {
	// src -> a -> b -> c -> sink  plus  src -> d (fan-out at src is fine,
	// chains only cover ops).
	g := New()
	s := g.AddSource("s", fakeSource{}, 1)
	a := g.AddOp("a", filterOp("a"), 1, 1)
	b := g.AddOp("b", filterOp("b"), 1, 1)
	c := g.AddOp("c", filterOp("c"), 1, 1)
	d := g.AddOp("d", filterOp("d"), 1, 1)
	k := g.AddSink("k", op.NewNull(2))
	g.Connect(s, a, 0)
	g.Connect(a, b, 0)
	g.Connect(b, c, 0)
	g.Connect(s, d, 0)
	g.Connect(c, k, 0)
	g.Connect(d, k, 1)
	chains := g.Chains()
	if len(chains) != 2 {
		t.Fatalf("chains: %v", chains)
	}
	var long, short []int
	for _, ch := range chains {
		if len(ch) == 3 {
			long = ch
		} else {
			short = ch
		}
	}
	if len(long) != 3 || long[0] != a.ID || long[2] != c.ID {
		t.Fatalf("long chain %v", long)
	}
	if len(short) != 1 || short[0] != d.ID {
		t.Fatalf("short chain %v", short)
	}
}

func TestChainsBreakAtFanInFanOut(t *testing.T) {
	// a -> b, a -> c: fan-out at a breaks chains.
	g := New()
	s := g.AddSource("s", fakeSource{}, 1)
	a := g.AddOp("a", filterOp("a"), 1, 1)
	b := g.AddOp("b", filterOp("b"), 1, 1)
	c := g.AddOp("c", filterOp("c"), 1, 1)
	g.Connect(s, a, 0)
	g.Connect(a, b, 0)
	g.Connect(a, c, 0)
	for _, ch := range g.Chains() {
		if len(ch) != 1 {
			t.Fatalf("fan-out should yield singleton chains: %v", ch)
		}
	}
}

func TestDOT(t *testing.T) {
	g, nodes := chain(2)
	cut := map[EdgeKey]bool{{From: nodes[0].ID, To: nodes[1].ID, ToPort: 0}: true}
	dot := g.DOT(cut)
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "dashed") {
		t.Fatalf("dot output: %s", dot)
	}
	if strings.Count(dot, "->") != 3 {
		t.Fatalf("dot edge count wrong: %s", dot)
	}
}

func TestAdoptMeasuredStats(t *testing.T) {
	g, nodes := chain(1)
	f := nodes[1]
	f.Op.Stats().RecordIn(2)
	f.Op.Stats().RecordOut(1)
	f.Op.Stats().ObserveInterarrival(1000)
	f.Op.Stats().ObserveCost(777)
	g.AdoptMeasuredStats()
	if f.CostNS != 777 {
		t.Fatalf("cost not adopted: %v", f.CostNS)
	}
	if f.Selectivity != 0.5 {
		t.Fatalf("selectivity not adopted: %v", f.Selectivity)
	}
	if f.RateHz != 1e6 {
		t.Fatalf("rate not adopted: %v", f.RateHz)
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	a := g.AddOp("a", filterOp("a"), 1, 1)
	b := g.AddOp("b", filterOp("b"), 1, 1)
	g.Connect(a, b, 0)
	g.Connect(b, a, 0)
	if _, err := g.TopoOrder(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}
