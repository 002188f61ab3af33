package sched

import (
	"fmt"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
)

// Reshard changes the replica count of a live shard region with state
// handoff, under the same splice discipline as Reconfigure: executors are
// halted, the world write lock is taken (sources pause at their next
// element; parked producers have yielded their locks per coop.go), and the
// splice goroutine may push past queue bounds because nothing else can
// free space.
//
// The protocol:
//
//  1. Quiesce the region. Drain every split→replica queue — deliveries run
//     the replicas on this goroutine, emitting into the replica→merge
//     queues — then every replica→merge queue, then flush the Merge's
//     reorder buffer downstream. After this the old replicas' windows are
//     the region's only state.
//  2. Export that state: each replica hands back the input elements it
//     still retains (ShardState), merged into one run by their split
//     sequence stamps.
//  3. Retire the old queues and their cut entries, rebuild the region with
//     n fresh replicas (graph.ResizeShard resets the Split's routing and
//     the Merge's ports), and replay the exported elements through the new
//     hash in sequence order — rebuilding per-key window state without
//     emitting.
//  4. Wire new bounded queues on the new edges, re-derive VOs/gates/units/
//     executors (keeping the GTS single-group discipline if it was in
//     force), and restart.
//
// Replayed elements keep their original sequence stamps and the Split's
// clock keeps running, so post-reshard outputs continue in global order
// with no seam visible downstream.
func (d *Deployment) Reshard(gr *graph.ShardGroup, n int) error {
	if gr == nil {
		return fmt.Errorf("sched: Reshard of nil shard group")
	}
	if n < 1 {
		return fmt.Errorf("sched: shard count %d < 1", n)
	}
	d.admin.Lock()
	defer d.admin.Unlock()
	if err := d.checkLive("Reshard"); err != nil {
		return err
	}
	if len(gr.Replicas) == n {
		return nil
	}
	split := gr.Split.Op.(*op.Split)
	merge := gr.Merge.Op.(*op.Merge)
	t0 := time.Now()
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
	if split.PortsDone() || merge.Closed() {
		return fmt.Errorf("sched: cannot re-shard %q: stream is closing", gr.Name)
	}

	// 1. Quiesce: drain in dataflow order, then flush the reorder buffer.
	scratch := make([]stream.Element, 1024)
	drain := func(es []graph.Edge) {
		for _, e := range es {
			q := d.queues[e.Key()]
			if q == nil {
				continue
			}
			for q.Len() > 0 {
				q.DrainBatch(scratch, len(scratch))
			}
		}
	}
	splitOut := append([]graph.Edge(nil), d.g.OutEdges(gr.Split.ID)...)
	mergeIn := append([]graph.Edge(nil), d.g.InEdges(gr.Merge.ID)...)
	drain(splitOut)
	drain(mergeIn)
	merge.FlushOpen()

	// 2. Export the old replicas' retained state in sequence order.
	var state []op.PortedElement
	for _, rn := range gr.Replicas {
		ss, ok := rn.Op.(op.ShardState)
		if !ok {
			return fmt.Errorf("sched: replica %q cannot export shard state", rn.Op.Name())
		}
		state = append(state, ss.ExportShardState()...)
	}
	op.SortPortedBySeq(state)

	// 3. Retire the region's queues (drained and therefore empty; poison
	// releases any straggling parked producer) and rebuild the region.
	for _, e := range append(append([]graph.Edge(nil), splitOut...), mergeIn...) {
		k := e.Key()
		if q := d.queues[k]; q != nil {
			q.Poison()
			delete(d.queues, k)
		}
		delete(d.cut, k)
	}
	if _, err := d.g.ResizeShard(gr, n); err != nil {
		return err
	}
	for _, pe := range state {
		sh := op.ShardIndex(gr.Spec.Key(pe.Port, pe.E), n)
		gr.Replicas[sh].Op.(op.ShardState).ImportShardElement(pe.Port, pe.E)
	}

	// 4. Fresh bounded queues on the new edges, then re-derive the
	// schedule around them.
	for i, rn := range gr.Replicas {
		for p := 0; p < gr.Spec.Ins; p++ {
			k := graph.Edge{From: gr.Split.ID, To: rn.ID, ToPort: p}.Key()
			q := queue.New(fmt.Sprintf("q(%s->%s)", gr.Split.Name, rn.Name), d.opts.QueueBound)
			q.Subscribe(rn.Op, p)
			split.SubscribeShard(i, p, q, 0)
			d.queues[k] = q
			d.cut[k] = true
		}
		k := graph.Edge{From: rn.ID, To: gr.Merge.ID, ToPort: i}.Key()
		q := queue.New(fmt.Sprintf("q(%s->%s)", rn.Name, gr.Merge.Name), d.opts.QueueBound)
		q.Subscribe(merge, i)
		rn.Op.Subscribe(q, 0)
		d.queues[k] = q
		d.cut[k] = true
	}
	if err := d.analyze(nil, d.single); err != nil {
		return err
	}
	d.rewireTargets()
	d.refreshUnits()
	d.buildExecs()
	// Feed the measured pause into the migration-cost model so the next
	// estimate reflects this deployment's real handoff costs.
	d.observeReshard(time.Since(t0).Nanoseconds(), len(state))
	return nil
}
