package sched

import (
	"fmt"
	"sort"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
)

// Reshard changes the replica count of a live shard region with state
// handoff, through the live-mutation primitive (see mutate): executors are
// halted and the world write lock is taken, so no thread is inside the
// split, a replica or the merge, and the mutating goroutine's drains may
// push past queue bounds. A no-op resize returns before anything is
// halted.
//
// The protocol:
//
//  1. Check, before touching anything, that the region's streams are not
//     closing and that every replica can export its state.
//  2. Quiesce the region: retire every split→replica edge — draining its
//     queue runs the replicas on this goroutine, emitting into the
//     replica→merge queues — then every replica→merge edge, then flush the
//     Merge's reorder buffer downstream. After this the old replicas'
//     windows are the region's only state.
//  3. Export that state: each replica hands back the input elements it
//     still retains (ShardState), merged into one run by their split
//     sequence stamps.
//  4. Rebuild the region with n fresh replicas (graph.ResizeShard resets
//     the Split's routing and the Merge's ports), replay the exported
//     elements through the new hash in sequence order — rebuilding per-key
//     window state without emitting — and wire bounded queues on the new
//     edges. mutate then re-derives VOs/gates/units/executors (keeping the
//     GTS single-group discipline if it was in force) and restarts.
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
	same := len(gr.Replicas) == n
	d.admin.Unlock()
	if same {
		return nil
	}
	split := gr.Split.Op.(*op.Split)
	merge := gr.Merge.Op.(*op.Merge)
	t0 := time.Now()
	rows := 0
	err := d.mutate("Reshard", nil, func(sp *Splicer) error {
		if split.PortsDone() || merge.Closed() {
			return fmt.Errorf("sched: cannot re-shard %q: stream is closing", gr.Name)
		}
		for _, rn := range gr.Replicas {
			if _, ok := rn.Op.(op.ShardState); !ok {
				return fmt.Errorf("sched: replica %q cannot export shard state", rn.Op.Name())
			}
		}

		// Quiesce in dataflow order, then flush the reorder buffer.
		for _, e := range append([]graph.Edge(nil), d.g.OutEdges(gr.Split.ID)...) {
			sp.retire(e, true)
		}
		for _, e := range append([]graph.Edge(nil), d.g.InEdges(gr.Merge.ID)...) {
			sp.retire(e, true)
		}
		merge.FlushOpen()

		// Export the old replicas' retained state and replay it in
		// sequence order, the arrival order every replica saw.
		var state []op.PortedElement
		for _, rn := range gr.Replicas {
			state = append(state, rn.Op.(op.ShardState).ExportShardState()...)
		}
		sort.Slice(state, func(i, j int) bool { return state[i].E.Seq < state[j].E.Seq })
		rows = len(state)

		if _, err := d.g.ResizeShard(gr, n); err != nil {
			return err
		}
		for _, pe := range state {
			sh := op.ShardIndex(gr.Spec.Key(pe.Port, pe.E), n)
			gr.Replicas[sh].Op.(op.ShardState).ImportShardElement(pe.Port, pe.E)
		}
		for _, e := range d.g.OutEdges(gr.Split.ID) {
			sp.AddEdge(e, true)
		}
		for _, e := range d.g.InEdges(gr.Merge.ID) {
			sp.AddEdge(e, true)
		}
		return nil
	})
	if err == nil {
		// Feed the measured pause into the migration-cost model so the
		// next estimate reflects this deployment's real handoff costs.
		d.admin.Lock()
		d.observeReshard(time.Since(t0).Nanoseconds(), rows)
		d.admin.Unlock()
	}
	return err
}
