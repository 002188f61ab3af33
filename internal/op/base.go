package op

import (
	"fmt"
	"sync/atomic"

	"github.com/dsms/hmts/internal/stats"
	"github.com/dsms/hmts/internal/stream"
)

// edge is one subscription: deliver to sink at its input port.
type edge struct {
	sink Sink
	port int
}

// Base provides the bookkeeping shared by all operators: naming, output
// subscriptions, fan-out emission, per-port end-of-stream aggregation and
// statistics. Embed it and implement ProcessBatch/Done.
type Base struct {
	name   string
	st     stats.OpStats
	edges  []edge
	ins    int
	doneIn []bool
	closed atomic.Bool
	// Metering state (see meterEvery), touched only by the goroutine
	// driving the operator. meterN counts elements since the last metered
	// batch and meterTS is that batch's last event time (valid once
	// meterOK). While a metered batch runs, timedN is its length, t0 its
	// start and downNS the time its deliveries spent downstream.
	meterN  uint64
	meterTS int64
	meterOK bool
	timedN  int
	t0      int64
	downNS  int64
	// obuf is the operator's reusable batch output buffer (see scratch/
	// flush). It holds at most one batch's worth of emitted elements
	// between ProcessBatch calls — bounded retention, unlike a leaked
	// slice head.
	obuf []stream.Element
	// prog, when non-nil, is the shard-progress watermark this operator
	// publishes for an order-restoring Merge downstream: the Seq of the
	// last input whose outputs have all been emitted. curSeq stages the
	// value between BeginWorkBatch and EndWorkBatch. See
	// EnableShardProgress.
	prog   *ShardProgress
	curSeq uint64
}

// InitBase prepares an embedded Base with the operator name and number of
// input ports.
func (b *Base) InitBase(name string, ins int) {
	if ins < 0 {
		panic("op: negative input port count")
	}
	b.name = name
	b.ins = ins
	b.doneIn = make([]bool, ins)
}

// Name implements Operator.
func (b *Base) Name() string { return b.name }

// Stats implements Operator.
func (b *Base) Stats() *stats.OpStats { return &b.st }

// Ins implements Operator.
func (b *Base) Ins() int { return b.ins }

// Subscribe implements Operator.
func (b *Base) Subscribe(s Sink, port int) {
	b.edges = append(b.edges, edge{sink: s, port: port})
}

// Unsubscribe implements Operator. It panics if the edge is not present,
// which always indicates an engine bug.
func (b *Base) Unsubscribe(s Sink, port int) {
	for i, e := range b.edges {
		if e.sink == s && e.port == port {
			b.edges = append(b.edges[:i], b.edges[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("op: Unsubscribe of unknown edge from %q", b.name))
}

// Fanout returns the number of output subscriptions.
func (b *Base) Fanout() int { return len(b.edges) }

// EmitBatch pushes a batch of results to every subscriber with one stats
// update and one ProcessBatch call per edge. The slice is handed to every
// edge in turn, so subscribers must neither retain nor mutate it (the Sink
// contract). Ordering is preserved per edge; across edges the fan-out
// interleaving coarsens to batch granularity. On a metered batch the
// deliveries are timed and left out of this operator's c(v): they are the
// downstream operators' (or an outgoing queue's) cost.
func (b *Base) EmitBatch(es []stream.Element) {
	if len(es) == 0 {
		return
	}
	b.st.RecordOut(len(es))
	var t int64
	if b.timedN > 0 {
		t = monotime()
	}
	for i := range b.edges {
		ed := &b.edges[i]
		ed.sink.ProcessBatch(ed.port, es)
	}
	if b.timedN > 0 {
		b.downNS += monotime() - t
	}
}

// deliver hands es to one edge outside EmitBatch, with the same metering:
// time spent downstream is not this operator's cost. The caller counts
// the elements with RecordOut.
func (b *Base) deliver(ed *edge, es []stream.Element) {
	if b.timedN == 0 {
		ed.sink.ProcessBatch(ed.port, es)
		return
	}
	t := monotime()
	ed.sink.ProcessBatch(ed.port, es)
	b.downNS += monotime() - t
}

// scratch returns the operator's output buffer, emptied, with capacity at
// least n. ProcessBatch implementations append results to it and hand it
// back through flush; because a DI graph is acyclic and a partition is
// single-threaded, the buffer can never be re-entered while in use.
func (b *Base) scratch(n int) []stream.Element {
	if cap(b.obuf) < n {
		b.obuf = make([]stream.Element, 0, n)
	}
	return b.obuf[:0]
}

// flush emits the accumulated batch and reclaims the buffer (including any
// growth beyond the scratch request) for the next call.
func (b *Base) flush(out []stream.Element) {
	b.EmitBatch(out)
	b.obuf = out[:0]
}

// Close propagates Done to all subscribers exactly once.
func (b *Base) Close() {
	if b.closed.Swap(true) {
		return
	}
	for _, ed := range b.edges {
		ed.sink.Done(ed.port)
	}
}

// Closed reports whether Close has run.
func (b *Base) Closed() bool { return b.closed.Load() }

// MarkDone records end-of-stream on an input port and reports whether all
// input ports are now done. Callers typically Close() when it returns true.
func (b *Base) MarkDone(port int) bool {
	if port < 0 || port >= b.ins {
		panic(fmt.Sprintf("op: Done on invalid port %d of %q (ins=%d)", port, b.name, b.ins))
	}
	b.doneIn[port] = true
	for _, d := range b.doneIn {
		if !d {
			return false
		}
	}
	return true
}

// EnableShardProgress allocates (once) and returns the operator's shard
// progress watermark. The deployment enables it on shard replicas so the
// downstream Merge can read how far the replica has processed; it costs one
// predictable branch per delivery when disabled.
func (b *Base) EnableShardProgress() *ShardProgress {
	if b.prog == nil {
		b.prog = &ShardProgress{}
	}
	return b.prog
}

// BeginWorkBatch counts an arriving batch with one atomic add. On a
// metered batch — once meterEvery elements have arrived since the last
// one — it also samples d(v) and starts the clock for c(v): the mean
// event-time gap since the previous metered batch's last element (inside
// the batch, for the first metered batch) is folded into d(v) here, and
// EndWorkBatch folds in the batch's per-element cost. Pair every call with
// EndWorkBatch. es must be non-empty.
func (b *Base) BeginWorkBatch(es []stream.Element) {
	b.st.RecordIn(len(es))
	last := es[len(es)-1].TS
	if b.prog != nil {
		b.curSeq = es[len(es)-1].Seq
	}
	b.meterN += uint64(len(es))
	if b.meterN < meterEvery {
		return
	}
	switch {
	case b.meterOK:
		if last >= b.meterTS {
			b.st.ObserveInterarrival(float64(last-b.meterTS) / float64(b.meterN))
		}
	case len(es) > 1 && last >= es[0].TS:
		b.st.ObserveInterarrival(float64(last-es[0].TS) / float64(len(es)-1))
	}
	b.meterN, b.meterTS, b.meterOK = 0, last, true
	b.timedN, b.downNS = len(es), 0
	b.t0 = monotime()
}

// EndWorkBatch closes the batch BeginWorkBatch opened. On a metered batch
// c(v) receives the operator's own time per element: the span since
// BeginWorkBatch minus what its deliveries spent downstream. Shard
// progress, when enabled, advances to the batch's last Seq here, after all
// of the batch's outputs have been emitted.
func (b *Base) EndWorkBatch() {
	if b.prog != nil {
		b.prog.done.Store(b.curSeq)
	}
	if b.timedN > 0 {
		b.st.ObserveCost(float64(monotime()-b.t0-b.downNS) / float64(b.timedN))
		b.timedN = 0
	}
}
