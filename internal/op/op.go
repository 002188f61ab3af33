// Package op implements the push-based query operators of the DSMS.
//
// An operator receives elements via ProcessBatch and — this is the paper's
// direct interoperability (DI, §2.4) — forwards results by directly calling
// ProcessBatch on its subscribed successors, so one arriving delivery
// triggers a depth-first traversal of the downstream subgraph. No scheduler
// is needed where DI is used; decoupling queues (package queue) end DI at
// chosen edges and hand control to a scheduler.
//
// There is one delivery path. A delivery is a batch, possibly of one
// element: a source that has a single element ready hands over a
// one-element slice, and every operator, queue and sink implements the
// same ProcessBatch body whatever the batch size. Outputs do not depend on
// how a stream is cut into batches (the batch-size invariance harness in
// batch_equiv_test.go checks this for every operator).
//
// Concurrency contract: at any instant, at most one goroutine drives a
// given operator's ProcessBatch/Done methods. The engine guarantees this by
// construction — an operator belongs to exactly one partition and each
// partition is executed by one goroutine at a time. That goroutine is the
// only writer of the operator's statistics, which are published atomically
// so samplers and planners may read them concurrently.
package op

import (
	"time"

	"github.com/dsms/hmts/internal/stats"
	"github.com/dsms/hmts/internal/stream"
)

// Sink consumes a stream. ProcessBatch delivers a batch of one or more
// elements, in stream order, to the given input port; Done signals that no
// more elements will arrive on that port (resolving the end-of-stream
// ambiguity discussed in paper §2.2 out of band rather than with sentinel
// elements).
//
// Contract: a delivery is a batch, possibly of one, that the callee
// neither retains nor mutates. The same slice is handed to every
// subscriber of a fan-out and then reused by the caller, so a callee that
// needs elements beyond the call copies them out. Batches never span input
// ports. How a stream is cut into batches must not change the callee's
// outputs, their per-edge order or its end state; only the interleaving
// across different output edges coarsens to batch granularity.
type Sink interface {
	ProcessBatch(port int, es []stream.Element)
	Done(port int)
}

// Operator is a query-graph node: a Sink that forwards derived elements to
// subscribed downstream sinks.
type Operator interface {
	Sink
	// Name returns the operator's display name.
	Name() string
	// Stats returns the operator's runtime statistics.
	Stats() *stats.OpStats
	// Subscribe attaches s as a downstream consumer; elements are
	// delivered to s.ProcessBatch(port, ...).
	Subscribe(s Sink, port int)
	// Unsubscribe detaches a previously subscribed (s, port) edge. It is
	// how the engine splices queues in and out of the graph at runtime.
	Unsubscribe(s Sink, port int)
	// Ins returns the number of input ports the operator expects Done on
	// before it closes.
	Ins() int
}

// Source produces a stream autonomously (paper §2.1: sources only deliver
// data). Run drives elements into out at the source's own pace and calls
// out.Done(port) when exhausted or stopped. Implementations live in package
// workload.
type Source interface {
	// Run blocks until the source is exhausted or stopped.
	Run(out Sink, port int)
	// Stop asks a running source to finish early; it is safe to call
	// concurrently with Run and more than once.
	Stop()
	// Name returns the source's display name.
	Name() string
}

// meterEvery controls sampled metering: a batch is metered once at least
// meterEvery elements have arrived since the last metered batch. A metered
// batch samples d(v), the mean event-time gap since the previous metered
// batch, and c(v), the batch's own time per element: from arrival to
// return, minus the time its emits spent in downstream operators or
// outgoing queues, so the costs of a fused chain add up to the chain's
// cost. A batch of one is thus metered one in meterEvery, and a batch of
// meterEvery or more every time. Every other batch pays one atomic add; a
// metered one pays two clock reads, plus two around each emit.
const meterEvery = 16

var epoch = time.Now()

// monotime returns nanoseconds since package initialization on the
// monotonic clock.
func monotime() int64 { return int64(time.Since(epoch)) }
