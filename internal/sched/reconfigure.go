package sched

import (
	"slices"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
)

// refreshUnits rebuilds the Unit wrappers around the existing queues,
// carrying completion state over, each with its VO's frontier.
func (d *Deployment) refreshUnits(front map[int]frontier) {
	steep, pos := chainMeta(d.g)
	d.units = make(map[int][]*Unit)
	for k, o := range d.outlets {
		vi := d.voOf[k.To]
		d.units[vi] = append(d.units[vi], &Unit{
			Q:         o.q,
			Gate:      d.gates[vi],
			Steepness: steep[k.To],
			SegPos:    pos[k.To],
			front:     front[vi],
			closed:    o.q.Closed(),
		})
	}
}

// Reconfigure changes the cut set and the grouping at runtime, through
// the live-mutation primitive (see mutate). With the cut unchanged it only
// regroups the executors over the existing queues — the paper's instant
// OTS ↔ GTS switch (§4.2.2). Otherwise queues are inserted on newly cut
// edges and removed — after being drained — from edges that are no longer
// cut, exactly as §5.1.3 prescribes ("a queue can be immediately
// inserted; to remove a queue all remaining elements must be entirely
// processed before"). The whole plan is validated before anything is
// touched: an invalid cut, grouping or strategy name returns an error
// with the cut, VOs and queues unchanged and processing continuing. An
// empty strategy keeps the deployment's default.
//
// Bounded queues are supported: no thread is ever parked inside an
// operator (coop.go), so the mutation waits only for the entries in
// progress to finish. Draining a removed queue may push past downstream
// bounds, and every element reaches its sink.
func (d *Deployment) Reconfigure(plan Plan, strategy string) error {
	return d.mutate("Reconfigure", plan.Groups, func(sp *Splicer) error {
		if err := CheckStrategy(strategy); err != nil {
			return err
		}
		newCut, err := normalizeCut(d.g, plan.Cut)
		if err != nil {
			return err
		}
		if _, _, _, err := layout(d.g, newCut, plan.Groups, plan.SingleGroup); err != nil {
			return err
		}
		for _, e := range d.g.Edges() {
			if k := e.Key(); d.cut[k] != newCut[k] {
				sp.retire(e, false)
				sp.AddEdge(e, newCut[k])
			}
		}
		d.cut = newCut
		d.single = plan.SingleGroup
		if strategy != "" {
			d.opts.Strategy = strategy
		}
		return nil
	})
}

// downstreamSink returns the natural DI target of a node.
func downstreamSink(n *graph.Node) op.Sink {
	if n.Kind == graph.KindSink {
		return n.Sink
	}
	return n.Op
}

// rewireTargets recomputes every source adapter's resolved targets, gate
// and frontier from the current cut, gates and VOs. Caller holds the world
// write lock (or the deployment has not started), so no source is in the
// middle of a delivery.
func (d *Deployment) rewireTargets(front map[int]frontier) {
	for _, n := range d.g.Sources() {
		vi := d.voOf[n.ID]
		a := d.adapters[n.ID]
		a.targets = nil
		a.gate = d.gates[vi]
		// A source drains no queue, so it waits on its whole frontier.
		f := front[vi]
		a.front = frontier{wait: slices.Concat(f.wait, f.own), held: f.held}
	}
	for _, e := range d.g.Edges() {
		from, to := d.g.Node(e.From), d.g.Node(e.To)
		if from.Kind != graph.KindSource {
			continue
		}
		a := d.adapters[from.ID]
		if o := d.outlets[e.Key()]; o != nil {
			a.targets = append(a.targets, srcTarget{sink: o})
		} else {
			a.targets = append(a.targets, srcTarget{sink: downstreamSink(to), port: e.ToPort})
		}
	}
}
