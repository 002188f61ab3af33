package sched

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/placement"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/workload"
)

// waitOrFail waits for the deployment to finish, failing the test instead
// of hanging if a mutation left its executors wedged.
func waitOrFail(t *testing.T, d *Deployment) {
	t.Helper()
	done := make(chan struct{})
	go func() { d.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deployment did not finish: executors wedged after a mutation")
	}
}

// TestSpliceCallbackErrorKeepsFlowing: a Splice whose callback fails
// returns the error and hands processing to fresh executors — the halted
// ones are never restarted (which used to panic with a double close) and
// the sink keeps receiving until every result is in.
func TestSpliceCallbackErrorKeepsFlowing(t *testing.T) {
	const n = 200_000
	g, sink := chainGraph(n)
	d, err := Build(g, OTS(g), Options{QueueBound: 64})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		if err := d.Splice(func(*Splicer) error { return boom }); err != boom {
			t.Fatalf("Splice = %v, want the callback's error", err)
		}
	}
	waitOrFail(t, d)
	sink.Wait()
	if got := sink.Len(); got != n/2 {
		t.Fatalf("after failed splices got %d results, want %d", got, n/2)
	}
}

// TestReconfigureInvalidPlanLeavesDeployment: an invalid grouping or a
// sink-targeted cut is rejected before anything is touched — cut, VOs and
// queues are unchanged — and processing continues to the exact output.
func TestReconfigureInvalidPlanLeavesDeployment(t *testing.T) {
	const n = 200_000
	g, sink := chainGraph(n)
	d, err := Build(g, DI(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	cut, vos, queues := d.Cut(), d.VOs(), d.Queues()
	ops := g.Ops()
	sinkID := g.Sinks()[0].ID
	for name, plan := range map[string]Plan{
		"sink in a group":      {Cut: placement.CutAll(g), Groups: [][]int{{sinkID}}},
		"VO split in groups":   {Cut: placement.CutSources(g), Groups: [][]int{{ops[0].ID}, {ops[1].ID}}},
		"cut edge into sink":   {Cut: map[graph.EdgeKey]bool{g.InEdges(sinkID)[0].Key(): true}},
		"unknown grouped node": {Groups: [][]int{{9999}}},
	} {
		if err := d.Reconfigure(plan, "chain"); err == nil {
			t.Fatalf("%s: Reconfigure accepted an invalid plan", name)
		}
		if !reflect.DeepEqual(d.Cut(), cut) || !reflect.DeepEqual(d.VOs(), vos) || !reflect.DeepEqual(d.Queues(), queues) {
			t.Fatalf("%s: rejected Reconfigure changed the deployment", name)
		}
	}
	waitOrFail(t, d)
	sink.Wait()
	if got := sink.Len(); got != n/2 {
		t.Fatalf("after rejected reconfigures got %d results, want %d", got, n/2)
	}
}

// doneSink is a collector that counts every Done it receives.
type doneSink struct {
	*op.Collector
	dones atomic.Int32
}

func (s *doneSink) Done(port int) {
	s.dones.Add(1)
	s.Collector.Done(port)
}

// relay forwards every batch and every Done it receives to its
// subscribers, with no once-only guard on Done: a repeated end-of-stream
// upstream reaches the sink instead of being absorbed.
type relay struct {
	op.Base
	outs []op.Sink
}

func newRelay(name string) *relay {
	r := &relay{}
	r.InitBase(name, 1)
	return r
}

func (r *relay) Subscribe(s op.Sink, _ int) { r.outs = append(r.outs, s) }

func (r *relay) Unsubscribe(s op.Sink, _ int) {
	for i, o := range r.outs {
		if o == s {
			r.outs = append(r.outs[:i], r.outs[i+1:]...)
			return
		}
	}
	panic("relay: Unsubscribe of unknown edge")
}

func (r *relay) ProcessBatch(_ int, es []stream.Element) {
	for _, o := range r.outs {
		o.ProcessBatch(0, es)
	}
}

func (r *relay) Done(int) {
	for _, o := range r.outs {
		o.Done(0)
	}
}

// TestReconfigureAfterSourceFinishedDoneOnce re-cuts a finished
// deployment (DI → OTS → DI, and the same through PureDI so source edges
// flip too). Every flipped edge's producer has already sent end-of-stream,
// so an inserted queue must be born closed and a removed one must not
// repeat its Done: a relay downstream forwards every Done it gets, and
// the sink must see exactly one and the exact output.
func TestReconfigureAfterSourceFinishedDoneOnce(t *testing.T) {
	for _, base := range []struct {
		name string
		mk   func(*graph.Graph) Plan
	}{{"di", DI}, {"pure-di", PureDI}} {
		t.Run(base.name, func(t *testing.T) {
			const n = 10_000
			g := graph.New()
			src := workload.New("src", n, workload.SeqKeys(), workload.FixedRate{Hz: 1e6}, nil)
			even := op.NewFilter("even", func(e stream.Element) bool { return e.Key%2 == 0 })
			sw := newRelay("route")
			sink := &doneSink{Collector: op.NewCollector(1)}
			ns := g.AddSource("src", src, 1e6)
			nf := g.AddOp("even", even, 100, 0.5)
			nw := g.AddOp("route", sw, 100, 1)
			nk := g.AddSink("out", sink)
			g.Connect(ns, nf, 0)
			g.Connect(nf, nw, 0)
			g.Connect(nw, nk, 0)

			d, err := Build(g, base.mk(g), Options{})
			if err != nil {
				t.Fatal(err)
			}
			d.Start()
			waitOrFail(t, d)
			want := sink.Elements()
			for _, plan := range []Plan{OTS(g), base.mk(g)} {
				if err := d.Reconfigure(plan, ""); err != nil {
					t.Fatalf("Reconfigure: %v", err)
				}
				waitOrFail(t, d)
			}
			if got := sink.dones.Load(); got != 1 {
				t.Fatalf("sink saw %d Done calls, want exactly 1", got)
			}
			if len(want) != n/2 || !reflect.DeepEqual(sink.Elements(), want) {
				t.Fatalf("output changed across the re-cuts: %d elements, want %d", len(sink.Elements()), n/2)
			}
		})
	}
}
