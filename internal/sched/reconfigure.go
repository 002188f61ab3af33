package sched

import (
	"fmt"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
)

// SwitchGroups re-assigns the existing virtual operators to a new set of
// executor groups at runtime — the paper's instant OTS ↔ GTS switch
// (§4.2.2): the level-1 structure (queues, DI wiring) is untouched, so the
// running executors are stopped after their current batch and new ones
// take over the same queues. Sources keep producing throughout; elements
// simply buffer in the queues during the hand-over. An empty strategy
// keeps the deployment's default.
func (d *Deployment) SwitchGroups(plan Plan, strategy string) error {
	if plan.Cut != nil {
		return fmt.Errorf("sched: SwitchGroups cannot change the cut; use Reconfigure")
	}
	d.admin.Lock()
	defer d.admin.Unlock()
	if err := d.checkLive("SwitchGroups"); err != nil {
		return err
	}
	for _, x := range d.execs {
		x.halt()
	}
	if strategy != "" {
		d.opts.Strategy = strategy
	}
	if err := d.analyzeGroupsOnly(plan.Groups, plan.SingleGroup); err != nil {
		return err
	}
	d.refreshUnits()
	d.buildExecs()
	if d.started {
		for _, x := range d.execs {
			x.start()
		}
	}
	return nil
}

// analyzeGroupsOnly recomputes the VO→group assignment without touching
// components, gates or queues.
func (d *Deployment) analyzeGroupsOnly(groups [][]int, single bool) error {
	d.single = single
	old := d.groupOf
	d.groupOf = make([]int, len(d.comps))
	for i := range d.groupOf {
		d.groupOf[i] = -1
	}
	next := 0
	switch {
	case single:
		for i := range d.groupOf {
			d.groupOf[i] = 0
		}
		next = 1
	case groups != nil:
		for gi, ids := range groups {
			for _, id := range ids {
				vi, ok := d.voOf[id]
				if !ok {
					d.groupOf = old
					return fmt.Errorf("sched: grouped node %d is a sink or unknown", id)
				}
				if d.groupOf[vi] != -1 && d.groupOf[vi] != gi {
					d.groupOf = old
					return fmt.Errorf("sched: VO of node %d split across groups %d and %d", id, d.groupOf[vi], gi)
				}
				d.groupOf[vi] = gi
			}
		}
		next = len(groups)
	}
	for i := range d.groupOf {
		if d.groupOf[i] == -1 {
			d.groupOf[i] = next
			next++
		}
	}
	d.nGroups = next
	return nil
}

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

// Reconfigure changes the cut set (and optionally the grouping) at
// runtime: queues are inserted on newly cut edges and removed — after
// being drained — from edges that are no longer cut, exactly as §5.1.3
// prescribes ("a queue can be immediately inserted; to remove a queue all
// remaining elements must be entirely processed before"). Executors are
// stopped during the splice; sources are paused via the world lock at
// their next element.
//
// Bounded queues are supported: parked producers cooperate (coop.go) —
// halting executors force-flushes their in-flight push past the bound,
// and a parked source yields its world read lock, so the splice can run
// past a full queue. A source blocked on a VO entry gate (whose holder
// may be such a parked source) likewise yields its read lock around the
// wait and re-resolves its target afterwards, since the splice may have
// moved the edge's queue placement or replaced the gate (see
// srcAdapter.lockTarget). Two bound relaxations apply during the splice
// only:
// the splice's own drain of removed queues may push past downstream
// bounds (every executor is halted, nothing else could free space), and a
// source parked on a queue that is spliced out has its in-flight element
// dropped and counted when the removed queue is poisoned.
func (d *Deployment) Reconfigure(plan Plan, strategy string) error {
	newCut := plan.Cut
	if newCut == nil {
		newCut = make(map[graph.EdgeKey]bool)
	}
	// Shard-region internal edges stay cut in every plan (see Build). They
	// are in the old cut too, so the splice loops below never touch them.
	for k := range d.g.MustCut() {
		newCut[k] = true
	}
	for k, v := range newCut {
		if v && d.g.Node(k.To).Kind == graph.KindSink {
			return fmt.Errorf("sched: cut edge %v targets a sink", k)
		}
	}
	d.admin.Lock()
	defer d.admin.Unlock()
	if err := d.checkLive("Reconfigure"); err != nil {
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

	// Remove queues from edges no longer cut: drain, then splice out.
	for _, e := range d.g.Edges() {
		k := e.Key()
		if !d.cut[k] || newCut[k] {
			continue
		}
		q := d.queues[k]
		scratch := make([]stream.Element, 1024)
		for q.Len() > 0 {
			q.DrainBatch(scratch, len(scratch))
		}
		if q.InputClosed() && !q.Closed() {
			q.Drain(1) // propagate the pending Done
		}
		delete(d.queues, k)
		d.spliceUpstream(e, q, directTarget{})
		// A source parked on this queue (its world read lock yielded) will
		// wake into an orphaned buffer nobody drains; poison it so the
		// straggling element is dropped and counted rather than silently
		// retained. New elements from that source flow through the rewired
		// direct edge.
		q.Poison()
	}
	// Insert queues on newly cut edges, honoring the deployment bound.
	for _, e := range d.g.Edges() {
		k := e.Key()
		if d.cut[k] || !newCut[k] {
			continue
		}
		from, to := d.g.Node(e.From), d.g.Node(e.To)
		q := queue.New(fmt.Sprintf("q(%s->%s)", from.Name, to.Name), d.opts.QueueBound)
		q.Subscribe(to.Op, e.ToPort)
		d.queues[k] = q
		closedUpstream := d.spliceUpstream(e, nil, directTarget{q: q})
		if closedUpstream {
			// Upstream already signaled Done on the old direct edge; the
			// queue will never hear it, so close its input now.
			q.Done(0)
		}
	}
	d.cut = newCut
	if err := d.analyze(plan.Groups, plan.SingleGroup); err != nil {
		return err
	}
	if strategy != "" {
		d.opts.Strategy = strategy
	}
	// Re-resolve every edge target (gates may have moved even on edges
	// whose cut status did not change).
	d.rewireTargets()
	d.refreshUnits()
	d.buildExecs()
	return nil
}

// directTarget tells spliceUpstream what the edge should now feed: a queue
// (insertion) or the edge's natural downstream sink (removal, zero value).
type directTarget struct {
	q *queue.Queue
}

// spliceUpstream rewires edge e's producer from its current target to the
// requested one. oldQ is the queue being removed (nil on insertion). It
// reports whether the upstream producer had already completed.
func (d *Deployment) spliceUpstream(e graph.Edge, oldQ *queue.Queue, t directTarget) bool {
	from, to := d.g.Node(e.From), d.g.Node(e.To)
	if from.Kind == graph.KindSource {
		// Source targets are fully re-resolved by rewireTargets.
		return d.adapters[from.ID].finished.Load()
	}
	if oldQ != nil {
		from.Op.Unsubscribe(oldQ, 0)
		from.Op.Subscribe(downstreamSink(to), e.ToPort)
	} else {
		from.Op.Unsubscribe(downstreamSink(to), e.ToPort)
		from.Op.Subscribe(t.q, 0)
	}
	return from.Op.(interface{ Closed() bool }).Closed()
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
