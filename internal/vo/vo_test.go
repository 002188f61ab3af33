package vo

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stream"
)

type fakeSource struct{}

func (fakeSource) Run(op.Sink, int) {}
func (fakeSource) Stop()            {}
func (fakeSource) Name() string     { return "fake" }

func mkGraph() (*graph.Graph, []*graph.Node) {
	g := graph.New()
	s := g.AddSource("s", fakeSource{}, 1000) // d = 1ms
	a := g.AddOp("a", op.NewFilter("a", func(stream.Element) bool { return true }), 100_000, 0.5)
	b := g.AddOp("b", op.NewFilter("b", func(stream.Element) bool { return true }), 200_000, 1)
	g.Connect(s, a, 0)
	g.Connect(a, b, 0)
	if err := g.DeriveRates(); err != nil {
		panic(err)
	}
	return g, []*graph.Node{s, a, b}
}

func TestOfSingle(t *testing.T) {
	g, n := mkGraph()
	v := Of(g, []int{n[1].ID}) // op a: rate 1000 -> d = 1e6ns, c = 1e5ns
	if math.Abs(v.DNS()-1e6) > 1 {
		t.Fatalf("d = %v", v.DNS())
	}
	if v.CNS != 1e5 {
		t.Fatalf("c = %v", v.CNS)
	}
	if math.Abs(v.Cap()-(1e6-1e5)) > 1 {
		t.Fatalf("cap = %v", v.Cap())
	}
}

func TestCapacityFormulaMatchesPaper(t *testing.T) {
	g, n := mkGraph()
	// P = {a, b}: d(P) = 1/(1/d(a)+1/d(b)); a input 1000/s, b input 500/s.
	v := Of(g, []int{n[1].ID, n[2].ID})
	wantD := 1 / (1000.0/1e9 + 500.0/1e9)
	if math.Abs(v.DNS()-wantD) > 1 {
		t.Fatalf("d(P) = %v, want %v", v.DNS(), wantD)
	}
	if v.CNS != 300_000 {
		t.Fatalf("c(P) = %v", v.CNS)
	}
}

func TestMergeMatchesOf(t *testing.T) {
	g, n := mkGraph()
	a := Of(g, []int{n[1].ID})
	b := Of(g, []int{n[2].ID})
	merged := Merge(a, b)
	direct := Of(g, []int{n[1].ID, n[2].ID})
	if math.Abs(merged.Cap()-direct.Cap()) > 1e-6 {
		t.Fatalf("merge cap %v != direct cap %v", merged.Cap(), direct.Cap())
	}
	if got := MergedCap(a, b); math.Abs(got-direct.Cap()) > 1e-6 {
		t.Fatalf("MergedCap %v != %v", got, direct.Cap())
	}
	if len(merged.Nodes) != 2 || merged.Nodes[0] > merged.Nodes[1] {
		t.Fatalf("merged nodes %v", merged.Nodes)
	}
}

// Merge leaves its inputs alone; Absorb grows its receiver in place,
// members unsorted, with the same arithmetic.
func TestMergeCopiesAbsorbGrowsInPlace(t *testing.T) {
	g, n := mkGraph()
	a := Of(g, []int{n[2].ID})
	a.Nodes = append(make([]int, 0, 4), a.Nodes...) // room to grow in place
	b := Of(g, []int{n[1].ID})
	m := Merge(a, b)
	if len(a.Nodes) != 1 || m.Nodes[0] != n[1].ID || m.Nodes[1] != n[2].ID {
		t.Fatalf("Merge: a.Nodes %v, merged %v", a.Nodes, m.Nodes)
	}
	a.Absorb(b)
	if len(a.Nodes) != 2 || a.Nodes[0] != n[2].ID || a.Nodes[1] != n[1].ID {
		t.Fatalf("Absorb: nodes %v", a.Nodes)
	}
	if a.CNS != m.CNS || a.InvD != m.InvD || a.Load != m.Load {
		t.Fatalf("Absorb %+v, Merge %+v", a, m)
	}
}

// Property: merging can only reduce capacity relative to either member
// (d shrinks harmonically, c adds) — the monotonicity the FFD heuristic
// relies on.
func TestMergeMonotonicity(t *testing.T) {
	if err := quick.Check(func(c1, c2, r1, r2 uint32) bool {
		a := VO{CNS: float64(c1%1e6) + 1, InvD: (float64(r1%1e4) + 1) / 1e9}
		b := VO{CNS: float64(c2%1e6) + 1, InvD: (float64(r2%1e4) + 1) / 1e9}
		m := Merge(a, b)
		return m.Cap() <= a.Cap()+1e-6 && m.Cap() <= b.Cap()+1e-6
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSinkRejected(t *testing.T) {
	g := graph.New()
	s := g.AddSource("s", fakeSource{}, 1)
	a := g.AddOp("a", op.NewFilter("a", func(stream.Element) bool { return true }), 1, 1)
	k := g.AddSink("k", op.NewNull(1))
	g.Connect(s, a, 0)
	g.Connect(a, k, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("sink in VO should panic")
		}
	}()
	Of(g, []int{k.ID})
}

func TestSummarize(t *testing.T) {
	vos := []VO{
		{CNS: 100, InvD: 1.0 / 50},  // cap = 50-100 = -50
		{CNS: 10, InvD: 1.0 / 100},  // cap = 90
		{CNS: 200, InvD: 1.0 / 100}, // cap = -100
		{CNS: 5, InvD: 1.0 / 10},    // cap = 5
	}
	s := Summarize(vos)
	if s.VOs != 4 || s.Negative != 2 || s.Positive != 2 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.AvgNegative-(-75)) > 1e-9 {
		t.Fatalf("avg negative %v", s.AvgNegative)
	}
	if math.Abs(s.AvgPositive-47.5) > 1e-9 {
		t.Fatalf("avg positive %v", s.AvgPositive)
	}
	empty := Summarize(nil)
	if empty.VOs != 0 || empty.AvgNegative != 0 || empty.AvgPositive != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
}

func TestFromComponentsAndString(t *testing.T) {
	g, n := mkGraph()
	if s := Of(g, []int{n[1].ID}).String(); !strings.Contains(s, "VO{") {
		t.Fatalf("String: %s", s)
	}
}
