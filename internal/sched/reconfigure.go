package sched

import (
	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
)

// refreshUnits rebuilds the Unit wrappers around the existing queues,
// carrying completion state over.
func (d *Deployment) refreshUnits() {
	steep, pos := chainMeta(d.g)
	d.units = make(map[int][]*Unit)
	for k, q := range d.queues {
		vi := d.voOf[k.To]
		u := &Unit{
			Q:         q,
			Gate:      d.gates[vi],
			Steepness: steep[k.To],
			SegPos:    pos[k.To],
			closed:    q.Closed(),
		}
		d.units[vi] = append(d.units[vi], u)
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
// touched: an invalid cut or grouping returns an error with the cut, VOs
// and queues unchanged and processing continuing. An empty strategy keeps
// the deployment's default.
//
// Bounded queues are supported: parked producers cooperate (coop.go) —
// halting executors force-flushes their in-flight push past the bound,
// and a parked source yields its world read lock, so the mutation can run
// past a full queue. A source blocked on a VO entry gate (whose holder
// may be such a parked source) likewise yields its read lock around the
// wait and re-resolves its target afterwards, since the mutation may have
// moved the edge's queue placement or replaced the gate (see
// srcAdapter.lockTarget). Two bound relaxations apply during the mutation
// only: the drain of removed queues may push past downstream bounds
// (every executor is halted, nothing else could free space), and a
// source parked on a queue that is spliced out has its in-flight element
// dropped and counted when the removed queue is poisoned.
func (d *Deployment) Reconfigure(plan Plan, strategy string) error {
	return d.mutate("Reconfigure", plan.Groups, func(sp *Splicer) error {
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

// rewireTargets recomputes every source adapter's resolved targets from
// the current cut and gates. Caller holds the world write lock. A splice
// may add or remove source out-edges, so indexes do NOT survive a rewire;
// each target carries its graph edge key and lockTarget re-resolves a
// stale entry by key. wireGen is bumped so a source that yielded its read
// lock around a park or a gate wait can detect the rewire.
func (d *Deployment) rewireTargets() {
	d.wireGen++
	for _, n := range d.g.Sources() {
		d.adapters[n.ID].targets = nil
	}
	for _, e := range d.g.Edges() {
		from, to := d.g.Node(e.From), d.g.Node(e.To)
		if from.Kind != graph.KindSource {
			continue
		}
		a := d.adapters[from.ID]
		if q := d.queues[e.Key()]; q != nil {
			a.targets = append(a.targets, srcTarget{sink: q, port: 0, key: e.Key()})
			continue
		}
		var gate *Gate
		if to.Kind != graph.KindSink {
			gate = d.gates[d.voOf[e.To]]
		}
		a.targets = append(a.targets, srcTarget{sink: downstreamSink(to), port: e.ToPort, gate: gate, key: e.Key()})
	}
}
