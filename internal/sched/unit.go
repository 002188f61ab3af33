// Package sched implements the three-level HMTS scheduling architecture of
// paper §4.2:
//
//	level 1 — operators, queues and virtual operators (the cut set decides
//	          which edges carry queues; uncut edges use DI),
//	level 2 — partition executors: each executor owns a group of queues and
//	          drains them under a pluggable strategy, like a small
//	          graph-threaded scheduler,
//	level 3 — the thread scheduler (TS): a run-permit queue that bounds
//	          how many executors run concurrently and grants permits in
//	          arrival order, so none starves.
//
// GTS, OTS and pure DI are degenerate plans of the same machinery, and the
// deployment can switch between them at runtime.
package sched

import (
	"sync"

	"github.com/dsms/hmts/internal/queue"
)

// Unit is one schedulable entity on level 2: a decoupling queue plus the
// static metadata strategies consult. The subgraph the queue feeds is
// executed via DI inside DrainBatch.
type Unit struct {
	Q *queue.Queue
	// Gate, when non-nil, serializes entry into the virtual operator this
	// queue feeds; it is shared with any autonomous sources fused into
	// the same VO.
	Gate *sync.Mutex
	// Steepness is the drop rate of the Chain lower-envelope segment the
	// fed operator belongs to; larger runs first under the Chain strategy.
	Steepness float64
	// SegPos orders operators within one chain (0 = closest to the
	// source); Chain breaks steepness ties in favor of earlier operators.
	SegPos int
	// front is the fed VO's frontier as this unit's executor sees it;
	// the executor settles it before it drains the unit (see coop.go).
	// Set by buildExecs.
	front frontier
	// closed flips once the queue has fully finished (input closed,
	// drained, Done propagated). Owned by the executor goroutine; the
	// strategies read it through gaugesOf on that same goroutine.
	closed bool
}
