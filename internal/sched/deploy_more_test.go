package sched

import (
	"strings"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/placement"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/workload"
)

func TestBuildRejectsCutIntoSink(t *testing.T) {
	g, _ := chainGraph(10)
	var sinkEdge graph.Edge
	for _, e := range g.Edges() {
		if g.Node(e.To).Kind == graph.KindSink {
			sinkEdge = e
		}
	}
	_, err := Build(g, Plan{Cut: map[graph.EdgeKey]bool{sinkEdge.Key(): true}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("want sink-cut rejection, got %v", err)
	}
}

func TestBuildRejectsSplitVO(t *testing.T) {
	g, _ := chainGraph(10)
	// No cuts: source and both ops are one VO; forcing its nodes into
	// different groups must fail.
	ops := g.Ops()
	_, err := Build(g, Plan{
		Cut:    placement.CutNone(g),
		Groups: [][]int{{ops[0].ID}, {ops[1].ID}},
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "split across groups") {
		t.Fatalf("want split-VO rejection, got %v", err)
	}
}

// TestBuildRejectsGroupCycle: with every edge of src → a → b → c cut, one
// executor for a and c and another for b could wait on each other (a's
// output waits for b, b's for c), so the grouping is refused; grouping
// along the dataflow is accepted.
func TestBuildRejectsGroupCycle(t *testing.T) {
	g := graph.New()
	src := g.AddSource("src", workload.New("src", 10, workload.SeqKeys(), workload.FixedRate{Hz: 1e6}, nil), 1e6)
	prev := src
	var ids []int
	for _, name := range []string{"a", "b", "c"} {
		n := g.AddOp(name, op.NewFilter(name, func(stream.Element) bool { return true }), 100, 1)
		g.Connect(prev, n, 0)
		ids = append(ids, n.ID)
		prev = n
	}
	sink := op.NewCollector(1)
	g.Connect(prev, g.AddSink("out", sink), 0)
	_, err := Build(g, Plan{Cut: placement.CutAll(g), Groups: [][]int{{ids[0], ids[2]}, {ids[1]}}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want group-cycle rejection, got %v", err)
	}
	d, err := Build(g, Plan{Cut: placement.CutAll(g), Groups: [][]int{{ids[0], ids[1]}, {ids[2]}}}, Options{QueueBound: 2})
	if err != nil {
		t.Fatalf("groups along the dataflow rejected: %v", err)
	}
	d.Start()
	waitOrFail(t, d)
	sink.Wait()
	if got := sink.Len(); got != 10 {
		t.Fatalf("got %d results, want 10", got)
	}
}

func TestBuildRejectsGroupedSink(t *testing.T) {
	g, _ := chainGraph(10)
	sink := g.Sinks()[0]
	_, err := Build(g, Plan{Cut: placement.CutAll(g), Groups: [][]int{{sink.ID}}}, Options{})
	if err == nil {
		t.Fatal("grouping a sink should fail")
	}
}

func TestBuildRejectsInvalidGraph(t *testing.T) {
	g := graph.New()
	g.AddSource("s", workload.New("s", 1, nil, nil, nil), 1)
	if _, err := Build(g, Plan{}, Options{}); err == nil {
		t.Fatal("invalid graph should be rejected")
	}
}

// TestGroupStrategyAndPriority: one executor group per operator under a
// one-permit TS and a non-default strategy, each group at a different
// priority set through its Proc, still runs everything to completion.
func TestGroupStrategyAndPriority(t *testing.T) {
	g, sink := chainGraph(50_000)
	d, err := Build(g, OTS(g), Options{
		Strategy: "maxqueue",
		TS:       &TSConfig{MaxConcurrent: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Execs()) < 2 {
		t.Fatalf("OTS built %d executor groups, want one per operator", len(d.Execs()))
	}
	for i, x := range d.Execs() {
		if x.Proc() == nil {
			t.Fatal("TS enabled but executor has no proc")
		}
		x.Proc().SetPriority(5 * i)
	}
	d.Start()
	d.Wait()
	sink.Wait()
	if sink.Len() != 25_000 {
		t.Fatalf("got %d results", sink.Len())
	}
	total := uint64(0)
	for _, x := range d.Execs() {
		total += x.Processed()
	}
	if total == 0 {
		t.Fatal("executors reported no processed elements")
	}
}

// TestGateSerializesSourcesAndExecutor builds the multi-driver case: two
// sources fused into a stateful operator's VO *and* an entry queue drained
// by an executor. Without the VO gate this would race on the operator
// state.
func TestGateSerializesSourcesAndExecutor(t *testing.T) {
	const n = 3_000
	g := graph.New()
	l := workload.New("l", n, workload.UniformKeys(0, 31, 1), workload.FixedRate{Hz: 1e6}, nil)
	r := workload.New("r", n, workload.UniformKeys(0, 31, 2), workload.FixedRate{Hz: 1e6}, nil)
	third := workload.New("t", n, workload.UniformKeys(0, 31, 3), workload.FixedRate{Hz: 1e6}, nil)

	join := op.NewSHJ("join", int64(time.Hour), nil)
	u := op.NewUnion("u", 2)
	agg := op.NewWindowAgg("agg", op.AggCount, int64(time.Hour), nil)
	sink := op.NewCounter(1)

	nl := g.AddSource("l", l, 1e6)
	nr := g.AddSource("r", r, 1e6)
	nt := g.AddSource("t", third, 1e6)
	nj := g.AddOp("join", join, 500, 1)
	nu := g.AddOp("u", u, 100, 1)
	na := g.AddOp("agg", agg, 500, 1)
	nk := g.AddSink("k", sink)
	g.Connect(nl, nj, 0)
	g.Connect(nr, nj, 1)
	g.Connect(nj, nu, 0)
	eT := g.Connect(nt, nu, 1)
	g.Connect(nu, na, 0)
	g.Connect(na, nk, 0)
	if err := g.DeriveRates(); err != nil {
		t.Fatal(err)
	}

	// Cut only the third source's edge: l and r drive the VO via DI while
	// an executor drains the third source's queue into the same VO.
	d, err := Build(g, Plan{Cut: map[graph.EdgeKey]bool{eT.Key(): true}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.Wait()
	sink.Wait()
	if err := d.Err(); err != nil {
		t.Fatalf("deployment error: %v", err)
	}
	// The aggregate must have seen exactly join-results + n elements.
	wantIn := join.Stats().Out() + n
	if got := agg.Stats().In(); got != wantIn {
		t.Fatalf("aggregate saw %d elements, want %d", got, wantIn)
	}
}

func TestDeploymentAccessors(t *testing.T) {
	g, _ := chainGraph(10)
	d, err := Build(g, GTS(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut := d.Cut()
	if len(cut) != len(d.Queues()) {
		t.Fatalf("cut %d vs queues %d", len(cut), len(d.Queues()))
	}
	for k := range cut {
		if d.Queue(k) == nil {
			t.Fatalf("no queue for cut edge %v", k)
		}
	}
	if d.Queue(graph.EdgeKey{From: 98, To: 99}) != nil {
		t.Fatal("phantom queue")
	}
	if d.TS() != nil {
		t.Fatal("GTS should have no TS")
	}
}

func TestReconfigureAcceptsBoundedQueues(t *testing.T) {
	// Bounded queues are safe under live mutation (coop.go), so there is
	// no "Reconfigure requires unbounded queues" refusal; re-cutting a
	// bounded deployment — here before Start, the degenerate splice —
	// must succeed, and inserted queues must inherit the deployment bound.
	g, _ := chainGraph(10)
	d, err := Build(g, GTS(g), Options{QueueBound: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Reconfigure(OTS(g), ""); err != nil {
		t.Fatalf("Reconfigure with bounded queues: %v", err)
	}
}

func TestStampedChainUnderQuantumPressure(t *testing.T) {
	// A tiny quantum forces many TS round-trips; results must not change.
	g, sink := chainGraph(40_000)
	d, err := Build(g, HMTS(g), Options{
		Quantum: 50 * time.Microsecond,
		Batch:   4,
		TS:      &TSConfig{MaxConcurrent: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.Wait()
	sink.Wait()
	if sink.Len() != 20_000 {
		t.Fatalf("got %d results", sink.Len())
	}
}

func TestPureDISingleSourceNoGate(t *testing.T) {
	// One source, pure DI: no queues, no executors, no gates needed.
	g := graph.New()
	src := workload.New("s", 1000, workload.SeqKeys(), workload.FixedRate{Hz: 1e6}, nil)
	f := op.NewFilter("f", func(e stream.Element) bool { return true })
	c := op.NewCollector(1)
	ns := g.AddSource("s", src, 1e6)
	nf := g.AddOp("f", f, 10, 1)
	nk := g.AddSink("k", c)
	g.Connect(ns, nf, 0)
	g.Connect(nf, nk, 0)
	if err := g.DeriveRates(); err != nil {
		t.Fatal(err)
	}
	d, err := Build(g, PureDI(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Queues()) != 0 || len(d.Execs()) != 0 {
		t.Fatalf("pure DI should have no queues/executors: %d/%d", len(d.Queues()), len(d.Execs()))
	}
	d.Start()
	d.Wait()
	c.Wait()
	if c.Len() != 1000 {
		t.Fatalf("got %d", c.Len())
	}
}
