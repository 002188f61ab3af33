package sched

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/placement"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/workload"
)

// chainGraph builds source -> filter(key%2==0) -> map(val+100) -> collector
// with a stamped source of n sequential elements.
func chainGraph(n int) (*graph.Graph, *op.Collector) {
	g := graph.New()
	src := workload.New("src", n, workload.SeqKeys(), workload.FixedRate{Hz: 1e6}, nil)
	filter := op.NewFilter("even", func(e stream.Element) bool { return e.Key%2 == 0 })
	mp := op.NewMap("add100", func(e stream.Element) stream.Element {
		e.Val += 100
		return e
	})
	sink := op.NewCollector(1)

	ns := g.AddSource("src", src, 1e6)
	nf := g.AddOp("even", filter, 100, 0.5)
	nm := g.AddOp("add100", mp, 100, 1)
	nk := g.AddSink("out", sink)
	g.Connect(ns, nf, 0)
	g.Connect(nf, nm, 0)
	g.Connect(nm, nk, 0)
	if err := g.DeriveRates(); err != nil {
		panic(err)
	}
	return g, sink
}

// joinGraph builds two sources feeding an SHJ into a collector.
func joinGraph(n int) (*graph.Graph, *op.Collector) {
	g := graph.New()
	left := workload.New("left", n, workload.UniformKeys(0, 50, 1), workload.FixedRate{Hz: 1e6}, nil)
	right := workload.New("right", n, workload.UniformKeys(0, 50, 2), workload.FixedRate{Hz: 1e6}, nil)
	join := op.NewSHJ("join", int64(time.Hour), nil)
	sink := op.NewCollector(1)

	nl := g.AddSource("left", left, 1e6)
	nr := g.AddSource("right", right, 1e6)
	nj := g.AddOp("join", join, 500, 1)
	nk := g.AddSink("out", sink)
	g.Connect(nl, nj, 0)
	g.Connect(nr, nj, 1)
	g.Connect(nj, nk, 0)
	if err := g.DeriveRates(); err != nil {
		panic(err)
	}
	return g, sink
}

func sortedKeyVals(els []stream.Element) []string {
	out := make([]string, len(els))
	for i, e := range els {
		out[i] = fmt.Sprintf("%d/%g", e.Key, e.Val)
	}
	sort.Strings(out)
	return out
}

func runPlan(t *testing.T, mk func(*graph.Graph) Plan, opts Options, build func(int) (*graph.Graph, *op.Collector), n int) []stream.Element {
	t.Helper()
	g, sink := build(n)
	d, err := Build(g, mk(g), opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	d.Start()
	d.Wait()
	sink.Wait()
	return sink.Elements()
}

func TestAllModesSameResultsChain(t *testing.T) {
	const n = 5000
	want := sortedKeyVals(runPlan(t, PureDI, Options{}, chainGraph, n))
	if len(want) != n/2 {
		t.Fatalf("PureDI produced %d results, want %d", len(want), n/2)
	}
	modes := map[string]func(*graph.Graph) Plan{
		"di": DI, "gts": GTS, "ots": OTS, "hmts": HMTS,
	}
	for name, mk := range modes {
		opts := Options{}
		if name == "hmts" {
			opts.TS = &TSConfig{}
		}
		got := sortedKeyVals(runPlan(t, mk, opts, chainGraph, n))
		if len(got) != len(want) {
			t.Fatalf("%s produced %d results, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s result %d = %s, want %s", name, i, got[i], want[i])
			}
		}
	}
}

func TestAllModesSameResultsJoin(t *testing.T) {
	const n = 800
	want := sortedKeyVals(runPlan(t, GTS, Options{}, joinGraph, n))
	if len(want) == 0 {
		t.Fatal("join produced no results")
	}
	for name, mk := range map[string]func(*graph.Graph) Plan{
		"pure-di": PureDI, "di": DI, "ots": OTS, "hmts": HMTS,
	} {
		got := sortedKeyVals(runPlan(t, mk, Options{}, joinGraph, n))
		if len(got) != len(want) {
			t.Fatalf("%s produced %d join results, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s join result %d = %s, want %s", name, i, got[i], want[i])
			}
		}
	}
}

func TestStrategiesSameResults(t *testing.T) {
	const n = 3000
	want := sortedKeyVals(runPlan(t, GTS, Options{Strategy: "fifo"}, chainGraph, n))
	got := sortedKeyVals(runPlan(t, GTS, Options{Strategy: "chain"}, chainGraph, n))
	if len(got) != len(want) {
		t.Fatalf("chain: %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("chain result %d = %s, fifo gave %s", i, got[i], want[i])
		}
	}
}

// TestReconfigureRegroupMidRun flips OTS -> GTS -> OTS while elements are
// flowing: the cut is unchanged, so each Reconfigure only regroups the
// executors over the same queues (the instant switch).
func TestReconfigureRegroupMidRun(t *testing.T) {
	const n = 200000
	g, sink := chainGraph(n)
	d, err := Build(g, OTS(g), Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	d.Start()
	queues := d.Queues()
	if err := d.Reconfigure(GTS(g), "chain"); err != nil {
		t.Fatalf("switch to GTS: %v", err)
	}
	if len(d.Execs()) != 1 || len(d.Queues()) != len(queues) {
		t.Fatalf("GTS regroup: %d executors over %d queues, want 1 over %d", len(d.Execs()), len(d.Queues()), len(queues))
	}
	for i, q := range d.Queues() {
		if q != queues[i] {
			t.Fatalf("regroup replaced queue %s", q.Name())
		}
	}
	if err := d.Reconfigure(OTS(g), "fifo"); err != nil {
		t.Fatalf("switch to OTS: %v", err)
	}
	d.Wait()
	sink.Wait()
	if got := sink.Len(); got != n/2 {
		t.Fatalf("after switching got %d results, want %d", got, n/2)
	}
}

func TestReconfigureCutMidRun(t *testing.T) {
	const n = 200000
	g, sink := chainGraph(n)
	d, err := Build(g, GTS(g), Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	d.Start()
	// Fuse the operators into one VO (DI), then decouple everything again.
	if err := d.Reconfigure(DI(g), ""); err != nil {
		t.Fatalf("reconfigure to DI: %v", err)
	}
	if err := d.Reconfigure(OTS(g), ""); err != nil {
		t.Fatalf("reconfigure to OTS: %v", err)
	}
	d.Wait()
	sink.Wait()
	if got := sink.Len(); got != n/2 {
		t.Fatalf("after reconfigure got %d results, want %d", got, n/2)
	}
}

func TestStopAbortsProcessing(t *testing.T) {
	g, sink := chainGraph(50_000_000) // far more than we will process
	d, err := Build(g, GTS(g), Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	d.Start()
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		d.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
	_ = sink
}

func TestHMTSPlacementFusesCheapChain(t *testing.T) {
	g, _ := chainGraph(10)
	cut := placement.FirstFitDecreasing(g)
	// Both op-op edges are cheap relative to the 1MHz input: the two
	// operators and the source should be fused, leaving no cut edges.
	if len(cut) != 0 {
		t.Fatalf("expected fully fused plan, got cuts %v", cut)
	}
}

func TestVOsReflectCut(t *testing.T) {
	g, _ := chainGraph(10)
	d, err := Build(g, GTS(g), Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	vos := d.VOs()
	if len(vos) != 3 { // source, filter, map each alone (sink excluded)
		t.Fatalf("GTS should have 3 singleton VOs, got %v", vos)
	}
	if len(d.Queues()) != 2 {
		t.Fatalf("GTS on a 2-op chain should have 2 queues, got %d", len(d.Queues()))
	}
	if len(d.Execs()) != 1 {
		t.Fatalf("GTS should have 1 executor, got %d", len(d.Execs()))
	}
}
