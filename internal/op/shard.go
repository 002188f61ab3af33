package op

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/dsms/hmts/internal/ring"
	"github.com/dsms/hmts/internal/stats"
	"github.com/dsms/hmts/internal/stream"
)

// This file implements data-parallel operator sharding: a hash Split that
// partitions a keyed stream across n replica operators, and an
// order-restoring Merge that reassembles the replicas' outputs into exactly
// the sequence the unsharded operator would have produced.
//
// Ordering protocol. Event time alone cannot restore the interleaving
// (duplicate timestamps are legal), so the Split — the single point every
// element passes through — stamps each element with a strictly increasing
// sequence number (stream.Element.Seq). Seq order refines the nondecreasing
// event-time order, replicas propagate the triggering input's Seq onto
// every output, and the Merge releases buffered outputs in global Seq
// order, zeroing Seq on the way out.
//
// The Merge may only release the output with sequence s once no other input
// port can still deliver an output with a smaller sequence. Blocking until
// every port has something buffered would deadlock on skewed keys (a cold
// replica may never emit), so each port instead exposes a lock-free
// frontier — a lower bound on the sequence of any future arrival — built
// from four monotone counters:
//
//	a_i  last sequence the Split assigned to shard i        (split-side)
//	G    last sequence the Split assigned to anyone         (split-side)
//	d_i  last sequence replica i finished processing, i.e.
//	     all outputs for it have been emitted               (replica-side)
//	o_i  outputs replica i has emitted (OpStats.Out)        (replica-side)
//
// and two merge-local counts per port: recv_i (outputs received) and
// lastRecv_i (sequence of the last one). The frontier of an open port i is
//
//	f_i = lastRecv_i − 1                      // per-port Seq is nondecreasing
//	if recv_i ≥ o_i:                          // nothing in flight to us
//	    f_i = max(f_i, d_i ≥ a_i ? G : d_i)   // replica idle → Split's clock
//
// The recv_i ≥ o_i guard is what makes d_i and G trustworthy: outputs are
// counted (RecordOut) before they are pushed, so recv_i ≥ o_i proves every
// output the replica had emitted by the time we loaded o_i has already
// reached us — nothing of it is still sitting in the queue. The Split
// stores a_i before publishing G (and both before d_i can reach them), so
// loading G first, then a_i, then d_i, then o_i makes the comparison safe:
// if d_i ≥ a_i the replica has processed everything ever routed to it and
// the next arrival must carry a sequence newer than G.
//
// A buffered output with sequence s from port p is releasable iff every
// *other* open port's frontier is ≥ s−1. Port p's own frontier is
// irrelevant: sequence s is owned by exactly one port, and per-port FIFO
// order already keeps multiple outputs of the same input (a join match
// burst) in emission order.

// ShardProgress is the watermark a shard replica publishes for the
// downstream Merge: the Seq of the last input element whose outputs have
// all been emitted. Base updates it in EndWorkBatch once enabled.
// The padding keeps each replica's hot word on its own cache line.
type ShardProgress struct {
	done atomic.Uint64
	_    [56]byte
}

// Done returns the published watermark (primarily for tests).
func (p *ShardProgress) Done() uint64 { return p.done.Load() }

// seqCell is a cache-line-padded atomic counter; the Split keeps one per
// shard for the last-assigned sequence.
type seqCell struct {
	v atomic.Uint64
	_ [56]byte
}

// ShardIndex maps a partition key to a shard in [0, shards) with a
// splitmix64-style finalizer, so adjacent keys spread evenly.
func ShardIndex(key int64, shards int) int {
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(shards))
}

// PortedElement is a stored input element tagged with the input port it
// arrived on; ExportShardState uses it so two-input operators (SHJ) can
// rebuild per-side state.
type PortedElement struct {
	Port int
	E    stream.Element
}

// ShardState is implemented by operators that can hand their window state
// across a live shard-count change. ExportShardState returns every input
// element the operator still retains, in any order: Reshard orders the
// union of all replicas' exports by Seq before replaying it.
// ImportShardElement replays one such element into a fresh replica,
// rebuilding state without emitting results or touching metrics.
type ShardState interface {
	ExportShardState() []PortedElement
	ImportShardElement(port int, e stream.Element)
}

// shardProgresser is satisfied by any Base-embedding operator; BindUpstream
// uses it to enable the replica's progress watermark.
type shardProgresser interface {
	EnableShardProgress() *ShardProgress
}

// Split hash-partitions every input port across n shards. Each element is
// stamped with the global sequence number, routed to shard
// ShardIndex(key(port, e), n), and delivered on the same input port number
// so replicas see the port layout of the original operator. Subscriptions
// are per (shard, input port) via SubscribeShard; the generic Subscribe
// panics so a mis-wired deployment fails loudly.
type Split struct {
	Base
	key      func(port int, e stream.Element) int64
	shards   int
	branches []edge // [shard*Ins() + inPort], exactly one subscriber each
	seq      uint64 // last assigned sequence; single-writer
	gseq     atomic.Uint64
	assigned []seqCell
	routed   [][]stream.Element // per-shard batch scratch, reused
}

// NewSplit returns a hash splitter over shards replicas of an operator with
// ins input ports. key extracts the partition key of an element arriving on
// a port.
func NewSplit(name string, ins, shards int, key func(port int, e stream.Element) int64) *Split {
	if ins < 1 {
		panic("op: split needs at least one input port")
	}
	if shards < 1 {
		panic("op: split needs at least one shard")
	}
	if key == nil {
		panic("op: split needs a key function")
	}
	sp := &Split{key: key}
	sp.InitBase(name, ins)
	sp.sizeTo(shards)
	return sp
}

// sizeTo (re)allocates the per-shard structures for n shards.
func (sp *Split) sizeTo(n int) {
	sp.shards = n
	sp.branches = make([]edge, n*sp.Ins())
	sp.assigned = make([]seqCell, n)
	sp.routed = make([][]stream.Element, n)
}

// Shards returns the current shard count.
func (sp *Split) Shards() int { return sp.shards }

// PortsDone reports whether end-of-stream has arrived on any input port. A
// live re-shard is refused once closing begins: per-port done state has
// already fanned into the old replicas and could not be replayed into
// fresh ones.
func (sp *Split) PortsDone() bool {
	for _, d := range sp.doneIn {
		if d {
			return true
		}
	}
	return false
}

// SubscribeShard attaches sink (at its input port) as the consumer of
// shard's stream for input port inPort. Each (shard, inPort) slot has
// exactly one consumer.
func (sp *Split) SubscribeShard(shard, inPort int, sink Sink, port int) {
	if shard < 0 || shard >= sp.shards || inPort < 0 || inPort >= sp.Ins() {
		panic(fmt.Sprintf("op: split %q has no slot (shard=%d, in=%d)", sp.Name(), shard, inPort))
	}
	slot := shard*sp.Ins() + inPort
	if sp.branches[slot].sink != nil {
		panic(fmt.Sprintf("op: split %q slot (shard=%d, in=%d) already subscribed", sp.Name(), shard, inPort))
	}
	sp.branches[slot] = edge{sink: sink, port: port}
}

// Subscribe panics: split consumers are per shard slot.
func (sp *Split) Subscribe(Sink, int) {
	panic(fmt.Sprintf("op: split %q requires SubscribeShard, not Subscribe", sp.Name()))
}

// Unsubscribe panics: split consumers are per shard slot, and Reset is
// the only way to detach them.
func (sp *Split) Unsubscribe(Sink, int) {
	panic(fmt.Sprintf("op: split %q detaches its shard consumers only through Reset", sp.Name()))
}

// Reset re-sizes the splitter to n shards, dropping all shard
// subscriptions but keeping the sequence clock running (imported state from
// before a live re-shard keeps its stamps, new elements continue after
// them). Only the deployment calls this, with the region quiesced.
func (sp *Split) Reset(n int) {
	if n < 1 {
		panic("op: split reset to zero shards")
	}
	sp.sizeTo(n)
	sp.gseq.Store(sp.seq)
	for i := range sp.assigned {
		sp.assigned[i].v.Store(sp.seq)
	}
}

// ProcessBatch implements Sink: stamp and bucket the batch per shard,
// then deliver one sub-batch per shard. Per-shard element order is the
// arrival order; the interleaving across shards coarsens to batch
// granularity, which the downstream Merge undoes anyway. Order matters: a
// shard's last-assigned sequence is stored before its sub-batch is pushed
// and the global clock advances only after every shard's, which is what
// lets the Merge trust a d_i ≥ a_i comparison (see the protocol comment
// above).
func (sp *Split) ProcessBatch(port int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	sp.BeginWorkBatch(es)
	s := sp.seq
	for _, e := range es {
		s++
		e.Seq = s
		sh := ShardIndex(sp.key(port, e), sp.shards)
		sp.routed[sh] = append(sp.routed[sh], e)
	}
	sp.seq = s
	ins := sp.Ins()
	for sh, out := range sp.routed {
		if len(out) == 0 {
			continue
		}
		sp.assigned[sh].v.Store(out[len(out)-1].Seq)
		sp.Stats().RecordOut(len(out))
		sp.deliver(&sp.branches[sh*ins+port], out)
		sp.routed[sh] = out[:0]
	}
	sp.gseq.Store(s)
	sp.EndWorkBatch()
}

// Done implements Sink: end-of-stream on input port p is forwarded to every
// shard's consumer for that port, so each replica sees the same per-port
// close sequence the unsharded operator would have.
func (sp *Split) Done(port int) {
	all := sp.MarkDone(port)
	ins := sp.Ins()
	for sh := 0; sh < sp.shards; sh++ {
		ed := &sp.branches[sh*ins+port]
		if ed.sink != nil {
			ed.sink.Done(ed.port)
		}
	}
	if all {
		sp.Close() // no Base edges; just records closure
	}
}

// mergeInput is one bound upstream replica: its progress watermark, its
// output counter, and the Split's last-assigned clock for its shard.
type mergeInput struct {
	prog     *ShardProgress
	st       *stats.OpStats
	assigned *atomic.Uint64
}

// Merge is the order-restoring k-way merge closing a shard region: input
// port i carries replica i's outputs (nondecreasing Seq per port), and
// elements are released downstream in global Seq order per the frontier
// protocol documented at the top of this file. Steady state is alloc-free:
// buffered elements live in per-port rings and releases go through the
// reusable Base batch buffer.
type Merge struct {
	Base
	n        int
	bufs     []ring.Ring[stream.Element]
	recv     []uint64
	lastRecv []uint64
	ups      []mergeInput
	gseq     *atomic.Uint64
	fr       []int64 // frontier scratch, refreshed per release pass
}

// NewMerge returns an order-restoring merge over n replica inputs. Each
// input port must be bound to its replica and the region's Split via
// BindUpstream before elements flow.
func NewMerge(name string, n int) *Merge {
	if n < 1 {
		panic("op: merge needs at least one input")
	}
	m := &Merge{}
	m.InitBase(name, n)
	m.sizeTo(n)
	return m
}

// sizeTo (re)allocates the per-port structures for n inputs.
func (m *Merge) sizeTo(n int) {
	m.n = n
	m.bufs = make([]ring.Ring[stream.Element], n)
	m.recv = make([]uint64, n)
	m.lastRecv = make([]uint64, n)
	m.ups = make([]mergeInput, n)
	m.fr = make([]int64, n)
}

// BindUpstream wires input port (= shard index) to its replica operator and
// the region's Split, giving the merge the counters the frontier protocol
// reads. rep must embed Base (every engine operator does).
func (m *Merge) BindUpstream(port int, sp *Split, rep Operator) {
	if port < 0 || port >= m.n {
		panic(fmt.Sprintf("op: merge %q has no input %d", m.Name(), port))
	}
	p, ok := rep.(shardProgresser)
	if !ok {
		panic(fmt.Sprintf("op: merge %q upstream %q cannot publish shard progress", m.Name(), rep.Name()))
	}
	m.ups[port] = mergeInput{prog: p.EnableShardProgress(), st: rep.Stats(), assigned: &sp.assigned[port].v}
	m.gseq = &sp.gseq
}

// Reset re-sizes the merge to n inputs, dropping buffers and bindings (the
// deployment re-binds after re-wiring). Downstream subscriptions and stats
// survive. Only called with the region quiesced and flushed.
func (m *Merge) Reset(n int) {
	if n < 1 {
		panic("op: merge reset to zero inputs")
	}
	m.ins = n
	m.doneIn = make([]bool, n)
	m.sizeTo(n)
}

// ProcessBatch implements Sink: buffer the whole batch, then run one
// release pass.
func (m *Merge) ProcessBatch(port int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	m.BeginWorkBatch(es)
	m.recv[port] += uint64(len(es))
	m.lastRecv[port] = es[len(es)-1].Seq
	m.bufs[port].Append(es)
	m.release(false)
	m.EndWorkBatch()
}

// Done implements Sink. A closed port's frontier becomes +inf (it can never
// deliver again), which may unblock other ports' buffers; once every port
// is done the final pass drains everything in Seq order and closes.
func (m *Merge) Done(port int) {
	all := m.MarkDone(port)
	m.release(all)
	if all {
		m.Close()
	}
}

// FlushOpen drains every buffered element downstream in global Seq order
// without closing. Only the deployment's live re-shard calls it, after the
// region has been quiesced (replicas drained, nothing in flight), where
// "no future arrival" holds for every port by construction.
func (m *Merge) FlushOpen() { m.release(true) }

// release runs one merge pass: refresh every open port's frontier (or
// pin all frontiers to +inf when final), then repeatedly release the
// globally smallest buffered sequence while no other open port can still
// deliver anything smaller.
func (m *Merge) release(final bool) {
	for i := 0; i < m.n; i++ {
		if final || m.doneIn[i] {
			m.fr[i] = math.MaxInt64
			continue
		}
		u := &m.ups[i]
		f := int64(m.lastRecv[i]) - 1
		// Load order G → a_i → d_i → o_i; see the protocol comment.
		g0 := int64(m.gseq.Load())
		a := u.assigned.Load()
		dn := u.prog.done.Load()
		if m.recv[i] >= u.st.Out() {
			claim := int64(dn)
			if dn >= a {
				claim = g0
			}
			if claim > f {
				f = claim
			}
		}
		m.fr[i] = f
	}
	out := m.scratch(16)
	for {
		// Pick the port holding the globally smallest buffered sequence;
		// if it cannot be released, nothing can (everything else is
		// larger and must follow it out).
		p := -1
		var best uint64
		for i := range m.bufs {
			if m.bufs[i].Len() == 0 {
				continue
			}
			if s := m.bufs[i].Front().Seq; p < 0 || s < best {
				p, best = i, s
			}
		}
		if p < 0 {
			break
		}
		minOther := int64(math.MaxInt64)
		for i, f := range m.fr {
			if i != p && f < minOther {
				minOther = f
			}
		}
		if int64(best)-1 > minOther {
			break
		}
		e := m.bufs[p].Pop()
		e.Seq = 0
		out = append(out, e)
	}
	m.flush(out)
}

// Buffered returns the number of elements currently held back waiting for
// sequence order (for tests and metrics).
func (m *Merge) Buffered() int {
	n := 0
	for i := range m.bufs {
		n += m.bufs[i].Len()
	}
	return n
}
