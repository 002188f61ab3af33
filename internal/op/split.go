package op

import (
	"fmt"

	"github.com/dsms/hmts/internal/stream"
)

// Switch routes each element to the first output branch whose predicate
// accepts it (or to every matching branch with RouteAll). Unlike the
// implicit fan-out of Base.EmitBatch — which copies every element to every
// subscriber, the subquery-sharing case of Figure 1 — Switch partitions the
// stream across branches.
type Switch struct {
	Base
	preds    []func(stream.Element) bool
	branches [][]edge
	routeAll bool
	taken    []bool // per-batch consumed marks, reused across batches
}

// NewSwitch returns a router with one branch per predicate. A nil predicate
// acts as a catch-all. If routeAll is true an element goes to every branch
// whose predicate matches rather than only the first.
func NewSwitch(name string, preds []func(stream.Element) bool, routeAll bool) *Switch {
	if len(preds) == 0 {
		panic("op: switch needs at least one branch")
	}
	s := &Switch{preds: preds, branches: make([][]edge, len(preds)), routeAll: routeAll}
	s.InitBase(name, 1)
	return s
}

// SubscribeBranch attaches sink at its input port to output branch i.
func (s *Switch) SubscribeBranch(i int, sink Sink, port int) {
	if i < 0 || i >= len(s.branches) {
		panic(fmt.Sprintf("op: switch %q has no branch %d", s.Name(), i))
	}
	s.branches[i] = append(s.branches[i], edge{sink: sink, port: port})
}

// Subscribe attaches to branch 0, satisfying Operator for single-branch use.
func (s *Switch) Subscribe(sink Sink, port int) { s.SubscribeBranch(0, sink, port) }

// Unsubscribe removes an edge from whichever branch holds it.
func (s *Switch) Unsubscribe(sink Sink, port int) {
	for bi := range s.branches {
		for i, e := range s.branches[bi] {
			if e.sink == sink && e.port == port {
				s.branches[bi] = append(s.branches[bi][:i], s.branches[bi][i+1:]...)
				return
			}
		}
	}
	panic(fmt.Sprintf("op: Unsubscribe of unknown edge from switch %q", s.Name()))
}

// ProcessBatch implements Sink. Elements are gathered per branch and
// dispatched with one stats update and one delivery per branch; a consumed
// bitmap preserves the first-matching-branch semantics when routeAll is
// off. Per-branch element order is the arrival order; only the
// interleaving across branches coarsens to batch granularity.
func (s *Switch) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	t := s.BeginWorkBatch(es)
	if cap(s.taken) < len(es) {
		s.taken = make([]bool, len(es))
	}
	taken := s.taken[:len(es)]
	for i := range taken {
		taken[i] = false
	}
	for bi, p := range s.preds {
		out := s.scratch(len(es))
		for i, e := range es {
			if !s.routeAll && taken[i] {
				continue
			}
			if p == nil || p(e) {
				taken[i] = true
				out = append(out, e)
			}
		}
		if len(out) > 0 {
			s.Stats().RecordOut(len(out))
			for j := range s.branches[bi] {
				ed := &s.branches[bi][j]
				ed.sink.ProcessBatch(ed.port, out)
			}
		}
		s.obuf = out[:0]
	}
	s.EndWorkBatch(t, len(es))
}

// Done implements Sink.
func (s *Switch) Done(port int) {
	if !s.MarkDone(port) {
		return
	}
	for _, br := range s.branches {
		for _, ed := range br {
			ed.sink.Done(ed.port)
		}
	}
}
