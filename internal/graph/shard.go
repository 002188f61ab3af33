package graph

import (
	"fmt"

	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stream"
)

// This file implements the shard rewrite: replacing one keyed stateful
// operator node with a hash Split, n independent replicas (each with
// private state, stats and batch buffers — the replica factory builds a
// fresh operator per shard), and an order-restoring Merge, wired so the
// region's output is byte-identical to the unsharded operator's.

// ShardSpec declares how an operator node shards: how many input ports the
// operator has, how to extract the partition key of an element arriving on
// a port, and how to build a fresh replica (operator i of a group).
type ShardSpec struct {
	// Ins is the operator's input port count (1 for aggregates, 2 for
	// joins).
	Ins int
	// Key extracts the partition key — the operator's group-by or join
	// key — from an element arriving on the given input port.
	Key func(port int, e stream.Element) int64
	// New builds replica i: a brand-new operator with its own state,
	// stats and buffers. It must never return a shared instance.
	New func(i int) op.Operator
}

// Shard region roles, recorded per node so planning and wiring can
// recognize the region's parts.
const (
	roleSplit = iota
	roleReplica
	roleMerge
)

type shardRole struct {
	group *ShardGroup
	role  int
	index int // replica index for roleReplica
}

// ShardGroup is one live split/replicas/merge region.
type ShardGroup struct {
	// Name is the original operator's name; Engine.Reshard addresses the
	// group by it.
	Name     string
	Split    *Node
	Merge    *Node
	Replicas []*Node
	Spec     *ShardSpec
	// CostNS/Selectivity remember the original node's planning estimates
	// so resizes can stamp fresh replicas.
	CostNS      float64
	Selectivity float64
}

// ShardGroups returns the live shard regions, in creation order.
func (g *Graph) ShardGroups() []*ShardGroup {
	out := make([]*ShardGroup, len(g.shards))
	copy(out, g.shards)
	return out
}

// ShardGroup returns the region created from the operator with the given
// name, or nil.
func (g *Graph) ShardGroup(name string) *ShardGroup {
	for _, gr := range g.shards {
		if gr.Name == name {
			return gr
		}
	}
	return nil
}

// SplitEdgeShard reports whether e leaves a shard split and, if so, which
// shard (replica index) it feeds. The deployment uses it to wire split
// branches.
func (g *Graph) SplitEdgeShard(e Edge) (int, bool) {
	if sr, ok := g.role[e.From]; ok && sr.role == roleSplit {
		to, ok := g.role[e.To]
		if !ok || to.role != roleReplica {
			panic(fmt.Sprintf("graph: split %d feeds non-replica %d", e.From, e.To))
		}
		return to.index, true
	}
	return 0, false
}

// MustCut returns the edges every plan must place a queue on: the internal
// edges of each shard region. Fusing a split→replica or replica→merge edge
// into one virtual operator would serialize the replicas and defeat the
// rewrite, so the deployment unions this set into every cut.
func (g *Graph) MustCut() map[EdgeKey]bool {
	cut := make(map[EdgeKey]bool)
	for _, gr := range g.shards {
		for _, e := range g.out[gr.Split.ID] {
			cut[e.Key()] = true
		}
		for _, e := range g.in[gr.Merge.ID] {
			cut[e.Key()] = true
		}
	}
	return cut
}

// ApplyShard rewrites shardable operator node n into a split/replicas/merge
// region with the given shard count and returns the group. The original
// node is removed (its runtime operator, which has never run, is
// discarded); upstream edges move to the Split, downstream edges to the
// Merge. Call before deployment only — live resizes go through
// ResizeShard.
func (g *Graph) ApplyShard(n *Node, shards int) (*ShardGroup, error) {
	if n == nil || g.node(n.ID) != n {
		return nil, fmt.Errorf("graph: ApplyShard of foreign node")
	}
	if n.Kind != KindOp {
		return nil, fmt.Errorf("graph: ApplyShard of non-operator %q", n.Name)
	}
	spec := n.Shardable
	if spec == nil {
		return nil, fmt.Errorf("graph: operator %q is not shardable (no key partitioning)", n.Name)
	}
	if shards < 1 {
		return nil, fmt.Errorf("graph: shard count %d < 1", shards)
	}
	if _, ok := g.role[n.ID]; ok {
		return nil, fmt.Errorf("graph: %q is already part of a shard region", n.Name)
	}
	if spec.Ins != n.Op.Ins() {
		return nil, fmt.Errorf("graph: shard spec of %q declares %d input ports, operator has %d", n.Name, spec.Ins, n.Op.Ins())
	}

	gr := &ShardGroup{Name: n.Name, Spec: spec, CostNS: n.CostNS, Selectivity: n.Selectivity}

	split := op.NewSplit(n.Name+"/split", spec.Ins, shards, spec.Key)
	gr.Split = g.AddOp(split.Name(), split, splitCostNS, 1)
	merge := op.NewMerge(n.Name+"/merge", shards)
	gr.Merge = g.AddOp(merge.Name(), merge, mergeCostNS, 1)

	// Move the original node's edges: inputs to the split, outputs from
	// the merge. Copy the slices first — disconnect mutates them.
	ins := append([]Edge(nil), g.in[n.ID]...)
	outs := append([]Edge(nil), g.out[n.ID]...)
	for _, e := range ins {
		g.disconnect(e)
		g.Connect(g.Node(e.From), gr.Split, e.ToPort)
	}
	for _, e := range outs {
		g.disconnect(e)
		g.Connect(gr.Merge, g.Node(e.To), e.ToPort)
	}
	g.removeNode(n)

	g.role[gr.Split.ID] = shardRole{group: gr, role: roleSplit}
	g.role[gr.Merge.ID] = shardRole{group: gr, role: roleMerge}
	g.addReplicas(gr, shards)
	g.shards = append(g.shards, gr)
	return gr, nil
}

// addReplicas builds shard replicas 0..n-1 for gr, connects them between
// the group's split and merge, and binds the merge's frontier counters.
func (g *Graph) addReplicas(gr *ShardGroup, n int) {
	split := gr.Split.Op.(*op.Split)
	merge := gr.Merge.Op.(*op.Merge)
	gr.Replicas = make([]*Node, n)
	for i := 0; i < n; i++ {
		rep := gr.Spec.New(i)
		if rep == nil {
			panic(fmt.Sprintf("graph: shard factory of %q returned nil replica", gr.Name))
		}
		for j := 0; j < i; j++ {
			if gr.Replicas[j].Op == rep {
				panic(fmt.Sprintf("graph: shard factory of %q returned a shared replica instance; each shard needs private state and buffers", gr.Name))
			}
		}
		rn := g.AddOp(rep.Name(), rep, gr.CostNS, gr.Selectivity)
		gr.Replicas[i] = rn
		g.role[rn.ID] = shardRole{group: gr, role: roleReplica, index: i}
		for p := 0; p < gr.Spec.Ins; p++ {
			g.Connect(gr.Split, rn, p)
		}
		g.Connect(rn, gr.Merge, i)
		merge.BindUpstream(i, split, rep)
	}
}

// ResizeShard replaces gr's replicas with a fresh set of n, resetting the
// split's routing tables and the merge's ports. It performs only the graph
// surgery — state drain/handoff and queue splicing are the deployment's
// job (sched.Reshard); before deployment it is the whole story, since no
// replica has state yet. The old replica nodes are returned so the caller
// can export their state first.
func (g *Graph) ResizeShard(gr *ShardGroup, n int) ([]*Node, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: shard count %d < 1", n)
	}
	found := false
	for _, x := range g.shards {
		if x == gr {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("graph: ResizeShard of unknown group %q", gr.Name)
	}
	old := gr.Replicas
	for _, rn := range old {
		for _, e := range append([]Edge(nil), g.in[rn.ID]...) {
			g.disconnect(e)
		}
		for _, e := range append([]Edge(nil), g.out[rn.ID]...) {
			g.disconnect(e)
		}
		g.removeNode(rn)
	}
	gr.Split.Op.(*op.Split).Reset(n)
	gr.Merge.Op.(*op.Merge).Reset(n)
	g.addReplicas(gr, n)
	return old, nil
}

// Planning estimates for the region's own operators: a split is a hash and
// a routed push, a merge a buffered compare-and-release. Like the
// builder's defaults they are the exclusive c(v) metered for them, here
// around a two-replica grouped Count under ModeDI at batch 64 over 1000
// keys, on a 2-vCPU x86-64 host: 16–21 ns and 30–40 ns.
const (
	splitCostNS = 18
	mergeCostNS = 32
)
