package sched

import (
	"fmt"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
)

// Splice runs a structural graph mutation against the live deployment
// under the full splice discipline (the same one Reconfigure and Reshard
// use): executors are halted, the world write lock is taken so sources
// pause at their next element, and the splice goroutine is registered
// with the cooperative-blocking hooks so its own drains may push past
// queue bounds (nothing else could free space while everything is
// halted). The callback mutates the graph and wires/retires edges through
// the Splicer; afterwards the VO structure, source targets, units and
// executors are rebuilt from the updated graph and processing resumes.
//
// The engine's multi-query layer uses this to add and drop standing
// queries on a running deployment — no restart, and removed suffixes are
// drained into their sinks rather than dropped.
func (d *Deployment) Splice(fn func(sp *Splicer) error) error {
	d.admin.Lock()
	defer d.admin.Unlock()
	if err := d.checkLive("splice"); err != nil {
		return err
	}
	for _, x := range d.execs {
		x.halt()
	}
	d.world.Lock()
	d.spliceGid.Store(goid())
	defer func() {
		d.spliceGid.Store(0)
		d.world.Unlock()
		if d.started {
			for _, x := range d.execs {
				x.start()
			}
		}
	}()
	if err := fn(&Splicer{d: d}); err != nil {
		return err
	}
	if err := d.analyze(nil, d.single); err != nil {
		return err
	}
	d.rewireTargets()
	d.refreshUnits()
	d.buildExecs()
	return nil
}

// Splicer is the edge-level wiring interface a Splice callback uses after
// mutating the graph. The graph mutation itself (Connect/Disconnect,
// node addition/removal) is the caller's job; AddEdge and RemoveEdge keep
// the deployment's queues and subscriptions consistent with it.
type Splicer struct {
	d *Deployment
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
func (sp *Splicer) AddEdge(e graph.Edge, cut bool) {
	d := sp.d
	from, to := d.g.Node(e.From), d.g.Node(e.To)
	var target op.Sink
	var tport int
	if cut {
		q := queue.New(fmt.Sprintf("q(%s->%s)", from.Name, to.Name), d.opts.QueueBound)
		q.Subscribe(to.Op, e.ToPort)
		d.queues[e.Key()] = q
		d.cut[e.Key()] = true
		target, tport = q, 0
	} else {
		target, tport = downstreamSink(to), e.ToPort
	}
	closed := false
	switch from.Kind {
	case graph.KindSource:
		// The adapter's targets are rebuilt wholesale by rewireTargets at
		// the end of the splice; only completion needs propagating here.
		closed = d.adapters[from.ID].finished.Load()
	default:
		if sh, ok := d.g.SplitEdgeShard(e); ok {
			from.Op.(*op.Split).SubscribeShard(sh, e.ToPort, target, tport)
		} else {
			from.Op.Subscribe(target, tport)
		}
		if c, ok := from.Op.(interface{ Closed() bool }); ok {
			closed = c.Closed()
		}
	}
	if closed {
		// The producer's Done already fired on its old edges; the new edge
		// would wait forever, so deliver end-of-stream now.
		target.Done(tport)
	}
}

// RemoveEdge retires one graph edge from the live deployment and
// disconnects it. A queue on the edge is first drained to completion —
// its elements are delivered downstream, not dropped — then poisoned so a
// producer parked on it wakes. fromDying marks edges whose producer node
// is itself being pruned: its subscriptions die with it, so only the
// graph edge and queue are retired (unsubscribing a shard split's routed
// edges individually is neither needed nor supported).
func (sp *Splicer) RemoveEdge(e graph.Edge, fromDying bool) {
	d := sp.d
	k := e.Key()
	from, to := d.g.Node(e.From), d.g.Node(e.To)
	if q := d.queues[k]; q != nil {
		scratch := make([]stream.Element, 1024)
		for q.Len() > 0 {
			q.DrainBatch(scratch, len(scratch))
		}
		if q.InputClosed() && !q.Closed() {
			q.Drain(1) // propagate the pending Done
		}
		delete(d.queues, k)
		delete(d.cut, k)
		if from.Kind != graph.KindSource && !fromDying {
			from.Op.Unsubscribe(q, 0)
		}
		// A producer parked on this queue (read lock yielded) wakes into
		// an orphaned buffer; poison it so the straggler is counted, not
		// silently retained.
		q.Poison()
	} else if from.Kind != graph.KindSource && !fromDying {
		from.Op.Unsubscribe(downstreamSink(to), e.ToPort)
	}
	d.g.Disconnect(e)
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
