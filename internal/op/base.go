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
	st     *stats.OpStats
	edges  []edge
	ins    int
	doneIn []bool
	closed atomic.Bool
	meterN uint64
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
	b.st = stats.NewOpStats()
}

// Name implements Operator.
func (b *Base) Name() string { return b.name }

// Stats implements Operator.
func (b *Base) Stats() *stats.OpStats { return b.st }

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
// interleaving coarsens to batch granularity.
func (b *Base) EmitBatch(es []stream.Element) {
	if len(es) == 0 {
		return
	}
	b.st.RecordOut(len(es))
	for i := range b.edges {
		ed := &b.edges[i]
		ed.sink.ProcessBatch(ed.port, es)
	}
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

// BeginWorkBatch records a whole arriving batch with one stats update (one
// counter add and one d(v) observation instead of len(es) of each) and, on
// sampled batches — once meterEvery elements have arrived since the last
// timed one — returns a start time for cost metering; otherwise -1. Pair
// with EndWorkBatch. es must be non-empty.
func (b *Base) BeginWorkBatch(es []stream.Element) int64 {
	b.st.RecordInBatch(es[0].TS, es[len(es)-1].TS, len(es))
	if b.prog != nil {
		b.curSeq = es[len(es)-1].Seq
	}
	b.meterN += uint64(len(es))
	if b.meterN >= meterEvery {
		b.meterN = 0
		return monotime()
	}
	return -1
}

// EndWorkBatch completes cost metering begun by BeginWorkBatch over n
// elements; the c(v) estimator receives the amortized per-element cost.
// Shard progress, when enabled, advances to the batch's last Seq here,
// after all of the batch's outputs have been emitted.
func (b *Base) EndWorkBatch(start int64, n int) {
	if b.prog != nil {
		b.prog.done.Store(b.curSeq)
	}
	if start >= 0 {
		b.st.RecordBusyBatch(monotime()-start, n)
	}
}
