// Package vo implements the virtual operator abstraction of paper §3 and
// §5.1.2 at the planning level: a VO is a connected partition of the query
// graph whose member operators are wired with direct interoperability (no
// queues inside), characterized by
//
//	c(P) = Σ_{v∈P} c(v)          total per-element processing cost
//	d(P) = 1 / Σ_{v∈P} 1/d(v)    combined input interarrival time
//	cap(P) = d(P) − c(P)         capacity
//	load(P) = Σ_{v∈P} c(v)·λ(v)  share of one core the members need
//
// Negative capacity means the VO stalls arriving elements; positive
// capacity means it is not fully utilized. The paper's d(P) counts every
// member's input as its own arrival stream, which holds along a chain but
// not for siblings fed by one producer: a fused sibling adds work to each
// element but no new arrivals. load(P), each member's cost times its own
// input rate λ(v), prices such a VO exactly; above 1 one core cannot keep
// up. The runtime realization of a VO is simply the DI wiring the
// deployment performs; this package carries the arithmetic the placement
// heuristics and the Figure 11 experiment share.
package vo

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dsms/hmts/internal/graph"
)

// VO describes one virtual operator: its member node IDs and its capacity
// characteristics, all in nanoseconds.
type VO struct {
	Nodes []int
	CNS   float64 // c(P): summed per-element cost
	InvD  float64 // Σ 1/d(v), in 1/ns — kept so merges stay exact
	Load  float64 // load(P) = Σ c(v)·λ(v), in cores
}

// DNS returns d(P) in nanoseconds (infinite if no member receives input).
func (v VO) DNS() float64 {
	if v.InvD <= 0 {
		return 1e308
	}
	return 1 / v.InvD
}

// Cap returns cap(P) = d(P) − c(P) in nanoseconds.
func (v VO) Cap() float64 { return v.DNS() - v.CNS }

// String renders the VO for diagnostics.
func (v VO) String() string {
	ids := make([]string, len(v.Nodes))
	for i, id := range v.Nodes {
		ids[i] = fmt.Sprint(id)
	}
	return fmt.Sprintf("VO{%s cap=%.0fns load=%.2f}", strings.Join(ids, ","), v.Cap(), v.Load)
}

// Of computes the VO characteristics of the given node set in g. Rates
// must have been derived (graph.DeriveRates) or set by hand. Sources
// contribute their emission interarrival to d and zero cost; sinks are not
// legal members.
func Of(g *graph.Graph, ids []int) VO {
	v := VO{Nodes: append([]int(nil), ids...)}
	sort.Ints(v.Nodes)
	for _, id := range v.Nodes {
		n := g.Node(id)
		if n.Kind == graph.KindSink {
			panic(fmt.Sprintf("vo: sink %q cannot join a virtual operator", n.Name))
		}
		v.CNS += n.CostNS
		if n.RateHz > 0 {
			v.InvD += n.RateHz / 1e9
			v.Load += n.CostNS * n.RateHz / 1e9
		}
	}
	return v
}

// Merge returns the VO formed by fusing a and b; capacity and load compose
// exactly because InvD, CNS and Load are all additive.
func Merge(a, b VO) VO {
	m := a
	m.Nodes = append([]int(nil), a.Nodes...)
	m.Absorb(b)
	sort.Ints(m.Nodes)
	return m
}

// Absorb fuses w into v in place, appending w's members unsorted — the
// step a placement growing many VOs at once needs, where Merge's copy
// and sort would make each merge cost the VO's size.
func (v *VO) Absorb(w VO) {
	v.Nodes = append(v.Nodes, w.Nodes...)
	v.CNS += w.CNS
	v.InvD += w.InvD
	v.Load += w.Load
}

// MergedCap returns cap(a ∪ b) without materializing the merge — the
// addCap test of Algorithm 1.
func MergedCap(a, b VO) float64 {
	inv := a.InvD + b.InvD
	d := 1e308
	if inv > 0 {
		d = 1 / inv
	}
	return d - (a.CNS + b.CNS)
}

// CapacitySummary aggregates Figure 11's metrics over a set of VOs. The
// negative and positive capacities are reported separately, each averaged
// over the VOs falling in that bucket: AvgNegative is the mean capacity of
// the stalling VOs (a non-positive number — closer to zero is better) and
// AvgPositive the mean unused headroom of the others.
type CapacitySummary struct {
	VOs         int
	Negative    int // number of VOs with cap < 0
	Positive    int // number of VOs with cap >= 0
	AvgNegative float64
	AvgPositive float64
}

// Summarize computes the capacity summary of vos.
func Summarize(vos []VO) CapacitySummary {
	s := CapacitySummary{VOs: len(vos)}
	var neg, pos float64
	for _, v := range vos {
		c := v.Cap()
		if c < 0 {
			neg += c
			s.Negative++
		} else {
			pos += c
			s.Positive++
		}
	}
	if s.Negative > 0 {
		s.AvgNegative = neg / float64(s.Negative)
	}
	if s.Positive > 0 {
		s.AvgPositive = pos / float64(s.Positive)
	}
	return s
}
