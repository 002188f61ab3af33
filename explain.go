package hmts

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dsms/hmts/internal/vo"
)

// Explain renders the engine's current execution plan for humans: each
// virtual operator with its members, combined cost c(P), combined
// interarrival d(P), capacity cap(P) = d(P) − c(P) and load(P), the share
// of one core its members need, plus the queue placements. A VO is marked
// STALLS when its load is above 1: one thread cannot keep up with it. A
// VO of cheap siblings fused behind one producer can read a negative
// cap(P), which counts each member's input as its own arrival stream, and
// still keep up. Before Run it explains the graph as one would-be plan;
// after Run it reflects the live deployment (including runtime
// re-partitioning). It holds the engine lock, as a live mutation does:
// deriving the rates it prints writes every node's rate estimate.
func (e *Engine) Explain() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var b strings.Builder
	b.WriteString("plan:\n")
	if e.d == nil {
		fmt.Fprintf(&b, "  (not deployed; %d nodes, %d edges)\n", e.g.Len(), len(e.g.Edges()))
		return b.String()
	}
	if err := e.g.DeriveRates(); err != nil {
		fmt.Fprintf(&b, "  (rates unavailable: %v)\n", err)
	}
	comps := e.d.VOs()
	vos := make([]vo.VO, len(comps))
	for i, c := range comps {
		vos[i] = vo.Of(e.g, c)
	}
	sort.Slice(vos, func(i, j int) bool { return vos[i].Load > vos[j].Load })
	for _, v := range vos {
		names := make([]string, len(v.Nodes))
		for i, id := range v.Nodes {
			names[i] = e.g.Node(id).Name
		}
		status := "ok"
		if v.Load > 1 {
			status = "STALLS"
		}
		fmt.Fprintf(&b, "  VO{%s}  c(P)=%s  d(P)=%s  cap=%s  load=%.2f  [%s]\n",
			strings.Join(names, " → "),
			fmtNS(v.CNS), fmtNS(v.DNS()), fmtNS(v.Cap()), v.Load, status)
	}
	qs := e.d.Queues()
	fmt.Fprintf(&b, "queues (%d):\n", len(qs))
	for _, q := range qs {
		fmt.Fprintf(&b, "  %s  len=%d max=%d\n", q.Name(), q.Len(), q.MaxLen())
	}
	fmt.Fprintf(&b, "executors: %d", len(e.d.Execs()))
	if ts := e.d.TS(); ts != nil {
		fmt.Fprintf(&b, " (thread scheduler: %d concurrent)", ts.MaxConcurrent())
	}
	b.WriteByte('\n')
	return b.String()
}

// fmtNS renders nanoseconds with a sensible unit.
func fmtNS(ns float64) string {
	switch {
	case ns >= 1e18 || ns <= -1e18:
		return "inf"
	case ns >= 1e9 || ns <= -1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6 || ns <= -1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3 || ns <= -1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
