// Package placement decides where to put the decoupling queues — the
// graph-partitioning question of paper §5. Each algorithm maps a query
// graph (with derived rates) to a cut set: the edges that receive queues.
// The connected components left by the cut are the virtual operators.
//
// Three constructions are provided, matching the §6.7 comparison:
//
//   - FirstFitDecreasing: the paper's Algorithm 1, a bottom-up stall-
//     avoiding heuristic with a first-fit-decreasing absorption rule,
//     extended so cheap sibling consumers share their producer's VO.
//   - Segment: the simplified segment-construction strategy of Jiang &
//     Chakravarthy (BNCOD 2004), which groups cost-monotone runs of a
//     chain.
//   - Chain: VO construction following the Chain strategy's lower-envelope
//     segments (Babcock et al., SIGMOD 2003): queues between operators of
//     the same segment are removed.
package placement

import (
	"math"
	"slices"
	"sort"

	"github.com/dsms/hmts/internal/envelope"
	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/vo"
)

// FirstFitDecreasing implements Algorithm 1 (static queue placement). It
// traverses the graph bottom-up in topological order; each operator first
// forms its own partition and then considers the partitions holding its
// direct predecessors, deduplicated and in descending capacity order:
//
//   - A partition still led by the predecessor itself (chain case) is
//     merged while the combined capacity cap(P) = d(P) − c(P) stays
//     non-negative — the paper's test.
//   - A partition that a sibling consumer has already claimed (fan-out
//     case) is joined while one core keeps up with the union: load(P) ≤ 1
//     (see package vo). The paper test would count the sibling's input as
//     a new arrival stream; under DI it adds work but no arrivals.
//
// Both cases obey the sibling bound. A producer p that feeds several
// operators has the bound load(p) + min load(c) over its consumers c,
// both single-operator loads c(v)·λ(v): no operator heavier than that
// fuses behind p, neither a consumer of p nor one further down a branch
// a consumer leads. The bound depends on the graph only, not on which
// consumer is visited first or on what other siblings have fused so
// far, so an operator costlier than the producer and its cheapest
// consumer together keeps its own thread whatever the order the query
// declares its branches in, and the cheap siblings never wait behind it.
//
// Neither case merges two partitions that a path through a third one
// connects: the VO would feed itself through a queue, and with bounded
// queues the two executors could each wait for the other.
//
// Partitions are tracked by union-find and named by their leader. An
// operator leads its own partition and keeps leading it through paper-
// test merges; a fan-out join keeps the joined partition's leader. Edges
// to predecessors that do not end up in the operator's partition are
// cut. The first-fit-decreasing rule is the bin-packing heuristic the
// paper cites for its 1 + ln|partition| approximation bound. On a graph
// where no producer feeds two operators only the chain case arises, no
// bound applies, and the cut is the paper's.
//
// The graph must have rates derived (graph.DeriveRates). Edges into sinks
// are never cut.
func FirstFitDecreasing(g *graph.Graph) map[graph.EdgeKey]bool {
	order, err := g.TopoOrder()
	if err != nil {
		panic("placement: " + err.Error())
	}
	cut := make(map[graph.EdgeKey]bool)
	ps := newPartitions(g, order)
	for _, n := range order {
		if n.Kind != graph.KindOp {
			continue
		}
		ins := g.InEdges(n.ID)
		// The partitions holding n's direct predecessors, deduplicated.
		var preds []predPartition
		for _, e := range ins {
			r := ps.find(e.From)
			i := slices.IndexFunc(preds, func(p predPartition) bool { return p.root == r })
			if i < 0 {
				i = len(preds)
				preds = append(preds, predPartition{root: r, room: math.Inf(1)})
			}
			preds[i].chain = preds[i].chain || ps.leader[r] == e.From
			preds[i].room = min(preds[i].room, ps.room[e.From])
		}
		// First-fit decreasing over partition capacity, with the leader's
		// ID as deterministic tie-break.
		sort.Slice(preds, func(i, j int) bool {
			ci, cj := ps.unit[preds[i].root].Cap(), ps.unit[preds[j].root].Cap()
			if ci != cj {
				return ci > cj
			}
			return ps.leader[preds[i].root] < ps.leader[preds[j].root]
		})
		for _, pp := range preds {
			own, r := ps.find(n.ID), pp.root
			cur, p := ps.unit[own], ps.unit[r]
			ok, leader := vo.MergedCap(cur, p) >= 0, ps.leader[own]
			if !pp.chain {
				ok, leader = cur.Load+p.Load <= 1, ps.leader[r]
			}
			ok = ok && cur.Load <= pp.room
			// With one predecessor partition no third one can lie on a
			// path between the two: it would hold another predecessor.
			if ok && (len(preds) == 1 || !ps.closesCycle(g, own, r, ps.pos[n.ID])) {
				ps.union(own, r, leader)
				ps.room[n.ID] = min(ps.room[n.ID], pp.room)
			}
		}
		own := ps.find(n.ID)
		for _, e := range ins {
			if ps.find(e.From) != own {
				cut[e.Key()] = true
			}
		}
	}
	return cut
}

// predPartition is a partition holding direct predecessors of the
// operator FirstFitDecreasing visits: chain when it is still led by one
// of them, room the tightest sibling bound on what fuses into it.
type predPartition struct {
	root  int
	chain bool
	room  float64
}

// partitions is the union-find FirstFitDecreasing grows its partitions
// in, indexed by node ID. unit and leader are valid at roots only; the
// VOs carry the member IDs and the arithmetic.
type partitions struct {
	parent []int
	unit   []vo.VO
	leader []int
	pos    []int // topological position
	// room is the heaviest partition that may fuse below a node: the
	// tightest sibling bound of the producers it shares a VO behind, or
	// of the node itself if it feeds several operators; +Inf elsewhere.
	room []float64
	// seen marks the nodes or partitions (by root) a search has visited,
	// with stamp as the current search's mark.
	seen  []int
	stamp int
}

func newPartitions(g *graph.Graph, order []*graph.Node) *partitions {
	size := 0
	for _, n := range order {
		size = max(size, n.ID+1)
	}
	ps := &partitions{
		parent: make([]int, size),
		unit:   make([]vo.VO, size),
		leader: make([]int, size),
		pos:    make([]int, size),
		room:   make([]float64, size),
		seen:   make([]int, size),
	}
	for i, n := range order {
		ps.parent[n.ID], ps.leader[n.ID], ps.pos[n.ID] = n.ID, n.ID, i
		if n.Kind != graph.KindSink {
			ps.unit[n.ID] = vo.Of(g, []int{n.ID})
		}
	}
	for _, n := range order {
		// The sibling bound, over n's distinct operator consumers.
		ps.room[n.ID] = math.Inf(1)
		ps.stamp++
		consumers, lightest := 0, math.Inf(1)
		for _, e := range g.OutEdges(n.ID) {
			if g.Node(e.To).Kind == graph.KindOp && ps.seen[e.To] != ps.stamp {
				ps.seen[e.To] = ps.stamp
				consumers++
				lightest = min(lightest, ps.unit[e.To].Load)
			}
		}
		if consumers > 1 {
			ps.room[n.ID] = ps.unit[n.ID].Load + lightest
		}
	}
	return ps
}

// find returns the root of id's partition, halving the path behind it.
func (ps *partitions) find(id int) int {
	for ps.parent[id] != id {
		ps.parent[id] = ps.parent[ps.parent[id]]
		id = ps.parent[id]
	}
	return id
}

// union merges the partitions rooted at a and b, the smaller into the
// larger, and names the result by leader.
func (ps *partitions) union(a, b, leader int) {
	if len(ps.unit[a].Nodes) < len(ps.unit[b].Nodes) {
		a, b = b, a
	}
	ps.parent[b] = a
	ps.unit[a].Absorb(ps.unit[b])
	ps.unit[b] = vo.VO{}
	ps.leader[a] = leader
}

// closesCycle reports whether merging the partitions rooted at a and b
// would fuse both ends of a path through a third partition: a VO that
// feeds itself through a queue. With bounded queues its executor and the
// one between could each wait for the other to drain (sched's coop.go).
// Only nodes placed so far, before topological position limit, can lie
// on such a path, since both partitions hold nothing later.
func (ps *partitions) closesCycle(g *graph.Graph, a, b, limit int) bool {
	return ps.detour(g, a, b, limit) || ps.detour(g, b, a, limit)
}

// detour reports whether a path leaves partition from and enters
// partition to through other partitions. It walks the partition graph:
// a path may enter a VO at one member and leave it at another.
func (ps *partitions) detour(g *graph.Graph, from, to, limit int) bool {
	ps.stamp++
	ps.seen[from] = ps.stamp
	stack := []int{from}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range ps.unit[r].Nodes {
			for _, e := range g.OutEdges(m) {
				switch x := ps.find(e.To); {
				case x == to:
					if r != from {
						return true
					}
				case ps.pos[e.To] < limit && ps.seen[x] != ps.stamp:
					ps.seen[x] = ps.stamp
					stack = append(stack, x)
				}
			}
		}
	}
	return false
}

// Segment implements the simplified segment-construction baseline: walking
// in topological order, an operator extends its predecessor's segment only
// along pure chain edges (single consumer feeding a single-input operator)
// and only while its per-element cost does not exceed the cost of the
// segment's first operator — i.e. the segment's service rate never
// degrades along the run. All other edges are cut. Source out-edges are
// always cut (segments contain operators only).
func Segment(g *graph.Graph) map[graph.EdgeKey]bool {
	order, err := g.TopoOrder()
	if err != nil {
		panic("placement: " + err.Error())
	}
	cut := make(map[graph.EdgeKey]bool)
	headCost := make(map[int]float64) // op ID -> cost of its segment's head
	for _, n := range order {
		if n.Kind != graph.KindOp {
			continue
		}
		headCost[n.ID] = n.CostNS
		ins := g.InEdges(n.ID)
		for _, e := range ins {
			from := g.Node(e.From)
			chainEdge := len(ins) == 1 &&
				from.Kind == graph.KindOp &&
				len(g.OutEdges(from.ID)) == 1
			if chainEdge && n.CostNS <= headCost[from.ID] {
				headCost[n.ID] = headCost[from.ID] // extend the segment
				continue
			}
			cut[e.Key()] = true
		}
	}
	return cut
}

// Chain implements the chain-strategy-based VO construction baseline:
// queues are removed between operators that fall into the same
// lower-envelope segment of their chain's progress chart. Segments are
// computed per maximal linear chain (graph.Chains); every other edge not
// entering a sink — segment boundaries, chain-head inputs, fan-in/fan-out
// joints and source out-edges — is cut.
func Chain(g *graph.Graph) map[graph.EdgeKey]bool {
	fused := make(map[graph.EdgeKey]bool)
	for _, ids := range g.Chains() {
		pts := make([]envelope.OpPoint, len(ids))
		for i, id := range ids {
			n := g.Node(id)
			pts[i] = envelope.OpPoint{CostNS: n.CostNS, Sel: n.Selectivity}
		}
		segOf, _ := envelope.Segments(pts)
		for i := 1; i < len(ids); i++ {
			if segOf[i] == segOf[i-1] {
				fused[g.InEdges(ids[i])[0].Key()] = true
			}
		}
	}
	cut := make(map[graph.EdgeKey]bool)
	for _, e := range g.Edges() {
		if !fused[e.Key()] && g.Node(e.To).Kind != graph.KindSink {
			cut[e.Key()] = true
		}
	}
	return cut
}

// CutAll returns the cut set that decouples every edge not entering a sink
// — the level-1 configuration of both GTS and OTS (paper §4.2.2).
func CutAll(g *graph.Graph) map[graph.EdgeKey]bool {
	cut := make(map[graph.EdgeKey]bool)
	for _, e := range g.Edges() {
		if g.Node(e.To).Kind == graph.KindSink {
			continue
		}
		cut[e.Key()] = true
	}
	return cut
}

// CutSources returns the cut set that decouples only source out-edges,
// leaving all operators fused by DI — the paper's "DI" configuration
// (one queue after the source, one thread for the operators).
func CutSources(g *graph.Graph) map[graph.EdgeKey]bool {
	cut := make(map[graph.EdgeKey]bool)
	for _, e := range g.Edges() {
		if g.Node(e.From).Kind == graph.KindSource && g.Node(e.To).Kind != graph.KindSink {
			cut[e.Key()] = true
		}
	}
	return cut
}

// CutNone returns the empty cut set: pure DI end to end, with operators
// running in the threads of their autonomous sources (the §6.3 setup).
func CutNone(*graph.Graph) map[graph.EdgeKey]bool {
	return make(map[graph.EdgeKey]bool)
}
