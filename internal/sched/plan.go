package sched

import (
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/placement"
)

// Plan is the level-1/level-2 configuration of a deployment: which edges
// carry queues (Cut — the virtual operator boundaries) and how the
// resulting VOs are grouped onto executors (Groups). The classic
// architectures are degenerate plans (paper §4.2.2).
type Plan struct {
	// Cut is the set of edges that receive decoupling queues. Edges into
	// sinks must not be cut.
	Cut map[graph.EdgeKey]bool
	// Groups lists executor groups as sets of node IDs. All nodes of one
	// VO must land in the same group. Nodes (VOs) not mentioned get a
	// group of their own. Nil with SingleGroup false means one executor
	// per VO. Groups must follow the dataflow: a grouping in which
	// executors could wait on each other in a cycle is rejected.
	Groups [][]int
	// SingleGroup puts every VO into one executor — graph-threaded
	// scheduling over the whole cut graph.
	SingleGroup bool
}

// GTS returns the graph-threaded plan: every edge decoupled, one executor
// (thread) for the complete query graph.
func GTS(g *graph.Graph) Plan {
	return Plan{Cut: placement.CutAll(g), SingleGroup: true}
}

// OTS returns the operator-threaded plan: every edge decoupled, one
// executor per operator.
func OTS(g *graph.Graph) Plan {
	return Plan{Cut: placement.CutAll(g)}
}

// DI returns the direct-interoperability plan of the paper's experiments:
// one queue after each source and no queues between operators, one
// executor per fused operator component.
func DI(g *graph.Graph) Plan {
	return Plan{Cut: placement.CutSources(g)}
}

// PureDI returns the fully fused plan with no queues at all: operators run
// in the threads of their autonomous sources (the §6.3 join setup).
func PureDI(g *graph.Graph) Plan {
	return Plan{Cut: placement.CutNone(g)}
}

// HMTS returns the hybrid plan: queues placed by the stall-avoiding
// first-fit-decreasing heuristic (Algorithm 1), one executor per virtual
// operator. Combine with Options.TS for level-3 arbitration. The graph
// must have rates derived or estimates set.
func HMTS(g *graph.Graph) Plan {
	return Plan{Cut: placement.FirstFitDecreasing(g)}
}

// Options tunes a deployment.
type Options struct {
	// Strategy names the level-2 strategy ("fifo", "roundrobin",
	// "chain", "maxqueue"); empty means FIFO.
	Strategy string
	// Batch is the maximum number of elements drained from one queue per
	// strategy decision (default 64).
	Batch int
	// Quantum is the level-2 time slice after which an executor
	// re-arbitrates with the TS (default 2ms; ignored without a TS
	// except as a strategy re-evaluation bound).
	Quantum time.Duration
	// TS enables the level-3 thread scheduler.
	TS *TSConfig
	// QueueBound bounds every decoupling queue (0 = unbounded). Bounded
	// queues provide backpressure at VO entry (see coop.go), so they are
	// safe with a TS and with every live mutation (Reconfigure, Splice,
	// Reshard). The bound is strict for cross-executor producers, whose
	// output that does not fit waits in the producer; same-executor edges
	// and live mutations overshoot it instead of self-deadlocking.
	QueueBound int
}

// TSConfig configures the level-3 thread scheduler.
type TSConfig struct {
	// MaxConcurrent bounds how many executors run simultaneously
	// (values < 1 become GOMAXPROCS at Build time).
	MaxConcurrent int
}

// agePerMS is the priority an executor waiting at the TS gains per
// millisecond; it prevents starvation.
const agePerMS = 1

func (o Options) batch() int {
	if o.Batch < 1 {
		return 64
	}
	return o.Batch
}

func (o Options) quantum() time.Duration {
	if o.Quantum <= 0 {
		return 2 * time.Millisecond
	}
	return o.Quantum
}
