package sched

import (
	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stream"
)

// mutate is the one live-mutation primitive: Splice, Reconfigure and
// Reshard are thin callers of it. It halts every executor and takes the
// world write lock. Producers wait for queue space only at VO entry,
// holding nothing (coop.go), so once the lock is granted no goroutine is
// inside an operator: an executor has exited, and a source is either
// parked before its entry or blocked on the read lock. What outlets hold
// back is force-flushed into the queues, before fn and again after it,
// so no element is in flight across the mutation. fn then changes the
// structure through the Splicer, and any drain it runs may push past
// queue bounds. Afterwards VOs, groups and gates are re-derived (grouped
// by groups, keeping the deployment's single-group discipline), source
// targets and frontiers rewired, units rebuilt around the queues and a
// fresh executor set started.
//
// The failure contract: fn validates before it touches anything, so an
// error it returns leaves the cut, VOs and queues as they were (a callback
// that fails after changing structure is not rolled back). On every exit
// the structure is re-derived under the default grouping if fn or the
// requested grouping failed, and the fresh executors are started either
// way; a halted executor is never restarted, and processing never stays
// wedged.
func (d *Deployment) mutate(what string, groups [][]int, fn func(*Splicer) error) error {
	d.admin.Lock()
	defer d.admin.Unlock()
	if err := d.checkLive(what); err != nil {
		return err
	}
	for _, x := range d.execs {
		x.halt()
	}
	d.world.Lock()
	d.flushOutlets()
	err := fn(&Splicer{d: d})
	if err == nil {
		err = d.analyze(groups, d.single)
	}
	if err != nil {
		// The default grouping fits any structure, so this cannot fail.
		_ = d.analyze(nil, d.single)
	}
	// Drains inside fn may have left output held in outlets whose VO sees
	// no further entry.
	d.flushOutlets()
	d.rebuild()
	d.world.Unlock()
	if d.started {
		for _, x := range d.execs {
			x.start()
		}
	}
	return err
}

// Splice runs a structural graph mutation against the live deployment
// under the live-mutation discipline (see mutate). The callback mutates
// the graph and wires/retires edges through the Splicer; afterwards the
// VO structure, source targets, units and executors are rebuilt from the
// updated graph and processing resumes — also when the callback fails.
//
// The engine's multi-query layer uses this to add and drop standing
// queries on a running deployment — no restart, and removed suffixes are
// drained into their sinks rather than dropped.
func (d *Deployment) Splice(fn func(sp *Splicer) error) error {
	return d.mutate("splice", nil, fn)
}

// Splicer is the edge-level wiring interface a Splice callback uses after
// mutating the graph. The graph mutation itself (Connect/Disconnect,
// node addition/removal) is the caller's job; AddEdge and RemoveEdge keep
// the deployment's queues and subscriptions consistent with it.
type Splicer struct {
	d *Deployment
	// retired maps each edge retired in this mutation to whether its
	// producer's end-of-stream had already gone down it, so re-adding the
	// edge (a Reconfigure flip) delivers that Done exactly once.
	retired map[graph.EdgeKey]bool
}

// HasCut reports whether the edge currently carries a decoupling queue —
// callers mirror a source's existing placement when wiring a new fan-out
// edge from it.
func (sp *Splicer) HasCut(k graph.EdgeKey) bool { return sp.d.cut[k] }

// AddEdge wires a newly connected graph edge into the live deployment:
// cut edges get a fresh bounded queue, uncut edges a direct subscription.
// If the upstream producer has already completed (a closed operator or a
// finished source), end-of-stream is propagated immediately so the new
// suffix still terminates. Edges out of a shard split are wired through
// the split's routing table, exactly as the initial wire() does.
//
// An edge retired earlier in the same mutation is re-placed instead, and
// its downstream port hears end-of-stream exactly once: if the Done had
// already gone down the edge, a new queue is born closed; if not, the
// producer still owes it and delivers it through the new placement.
func (sp *Splicer) AddEdge(e graph.Edge, cut bool) {
	d := sp.d
	k := e.Key()
	from, to := d.g.Node(e.From), d.g.Node(e.To)
	sent, replaced := sp.retired[k]
	var target op.Sink
	var tport int
	if cut {
		target, tport = d.newOutlet(e, sent), 0
		d.cut[k] = true
	} else {
		target, tport = downstreamSink(to), e.ToPort
	}
	var finished bool
	switch from.Kind {
	case graph.KindSource:
		// The adapter's targets are rebuilt wholesale by rewireTargets at
		// the end of the mutation; only completion needs propagating here.
		finished = d.adapters[from.ID].finished.Load()
	default:
		d.subscribe(from, e, target, tport)
		finished = opClosed(from)
	}
	if finished && !replaced {
		// The producer's Done already fired on its old edges; the new edge
		// would wait forever, so deliver end-of-stream now.
		target.Done(tport)
	}
}

// RemoveEdge retires one graph edge from the live deployment and
// disconnects it (see retire).
func (sp *Splicer) RemoveEdge(e graph.Edge, fromDying bool) {
	sp.retire(e, fromDying)
	sp.d.g.Disconnect(e)
}

// retire takes one edge out of the live deployment without touching the
// graph. A queue on the edge is first drained to completion — what its
// outlet holds back, its elements and a pending end-of-stream are
// delivered downstream, not dropped — then poisoned. fromDying
// marks edges whose producer node is itself being pruned or rebuilt: its
// subscriptions die with it, so only the queue is retired (unsubscribing
// a shard split's routed edges individually is neither needed nor
// supported).
func (sp *Splicer) retire(e graph.Edge, fromDying bool) {
	d := sp.d
	k := e.Key()
	from, to := d.g.Node(e.From), d.g.Node(e.To)
	if sp.retired == nil {
		sp.retired = make(map[graph.EdgeKey]bool)
	}
	if from.Kind == graph.KindSource {
		sp.retired[k] = d.adapters[from.ID].finished.Load()
	} else {
		sp.retired[k] = opClosed(from)
	}
	if o := d.outlets[k]; o != nil {
		o.flush(true)
		q := o.q
		scratch := make([]stream.Element, 1024)
		for q.Len() > 0 {
			q.DrainBatch(scratch, len(scratch))
		}
		if q.InputClosed() && !q.Closed() {
			q.DrainBatch(scratch, len(scratch)) // propagate the pending Done
		}
		delete(d.outlets, k)
		delete(d.cut, k)
		if from.Kind != graph.KindSource && !fromDying {
			from.Op.Unsubscribe(o, 0)
		}
		// A source parked on this queue wakes and re-enters through the
		// rewired targets; poison it so anything that still reached the
		// orphaned buffer would be counted in Dropped, not retained.
		q.Poison()
	} else if from.Kind != graph.KindSource && !fromDying {
		from.Op.Unsubscribe(downstreamSink(to), e.ToPort)
	}
}

// opClosed reports whether an operator node has closed, i.e. sent its
// end-of-stream down every out-edge.
func opClosed(n *graph.Node) bool {
	c, ok := n.Op.(interface{ Closed() bool })
	return ok && c.Closed()
}

// FlushNode gives a node being pruned a chance to surface internally
// buffered elements (an order-restoring Merge holds a reorder window)
// into its still-attached downstream before its out-edges are retired.
func (sp *Splicer) FlushNode(n *graph.Node) {
	if n.Kind != graph.KindOp {
		return
	}
	if fl, ok := n.Op.(interface{ FlushOpen() }); ok {
		fl.FlushOpen()
	}
}
