package sched

import (
	"strings"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/workload"
)

// bombGraph builds a chain whose second operator panics on key 500.
func bombGraph(n int) *graph.Graph {
	g := graph.New()
	src := workload.New("src", n, workload.SeqKeys(), workload.FixedRate{Hz: 1e6}, nil)
	pass := op.NewFilter("pass", func(stream.Element) bool { return true })
	bomb := op.NewFilter("bomb", func(e stream.Element) bool {
		if e.Key == 500 {
			panic("operator bug")
		}
		return true
	})
	sink := op.NewNull(1)
	ns := g.AddSource("src", src, 1e6)
	na := g.AddOp("pass", pass, 10, 1)
	nb := g.AddOp("bomb", bomb, 10, 1)
	nk := g.AddSink("out", sink)
	g.Connect(ns, na, 0)
	g.Connect(na, nb, 0)
	g.Connect(nb, nk, 0)
	if err := g.DeriveRates(); err != nil {
		panic(err)
	}
	return g
}

func TestOperatorPanicContainedInExecutor(t *testing.T) {
	for _, mode := range []struct {
		name string
		mk   func(*graph.Graph) Plan
	}{
		{"gts", GTS}, {"ots", OTS}, {"di", DI},
	} {
		t.Run(mode.name, func(t *testing.T) {
			g := bombGraph(100_000)
			d, err := Build(g, mode.mk(g), Options{})
			if err != nil {
				t.Fatal(err)
			}
			d.Start()
			waitDone := make(chan struct{})
			go func() { d.Wait(); close(waitDone) }()
			select {
			case <-waitDone:
			case <-time.After(10 * time.Second):
				t.Fatal("deployment did not fail-stop after operator panic")
			}
			if err := d.Err(); err == nil || !strings.Contains(err.Error(), "operator bug") {
				t.Fatalf("Err() = %v", err)
			}
		})
	}
}

func TestOperatorPanicContainedInSourceThread(t *testing.T) {
	g := bombGraph(100_000)
	d, err := Build(g, PureDI(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	waitDone := make(chan struct{})
	go func() { d.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("deployment did not fail-stop after source-thread panic")
	}
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "source thread") {
		t.Fatalf("Err() = %v", err)
	}
}

func TestNoErrOnCleanRun(t *testing.T) {
	g, sink := chainGraph(1000)
	d, err := Build(g, GTS(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.Wait()
	sink.Wait()
	if err := d.Err(); err != nil {
		t.Fatalf("clean run reported %v", err)
	}
}

func TestReconfigureAfterFailRejected(t *testing.T) {
	// The world lock must not be leaked by the panic (Reconfigure after a
	// failure must not deadlock), and the stopped deployment must refuse
	// the mutation rather than restart its executors.
	g := bombGraph(10_000)
	d, err := Build(g, PureDI(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.Wait()
	if d.Err() == nil {
		t.Fatal("expected failure")
	}
	done := make(chan error, 1)
	go func() { done <- d.Reconfigure(GTS(g), "") }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Reconfigure on a fail-stopped deployment returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reconfigure deadlocked after a contained panic (leaked lock?)")
	}
}
