package hmts

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/ingest"
)

// OpMetrics is a snapshot of one operator's runtime statistics.
type OpMetrics struct {
	Name           string
	In, Out        uint64
	Selectivity    float64
	CostNS         float64 // measured mean per-element processing cost c(v)
	InterarrivalNS float64 // measured mean input interarrival d(v)
	PlannedCostNS  float64 // the estimate the current plan was built with
}

// QueueMetrics is a snapshot of one decoupling queue.
type QueueMetrics struct {
	Name       string
	Len        int
	MaxLen     int
	Enqueued   uint64
	Dequeued   uint64
	FullBlocks uint64 // times a producer waited for space on this queue full
	BlockedNS  int64  // cumulative nanoseconds producers spent waiting
	Overshoot  uint64 // elements enqueued past the bound (self-feed, live mutation)
	Closed     bool
}

// IngestMetrics is a snapshot of one external source's ingress buffer.
type IngestMetrics struct {
	Name     string
	Accepted uint64 // elements admitted into the ingress buffer
	Dropped  uint64 // elements rejected or evicted by the overload policy
	Len      int    // current ingress backlog
	Cap      int    // ingress buffer bound
	MaxLen   int    // backlog high-water mark
	LagNS    int64  // wall-clock age of the oldest buffered element
	Policy   string // overload policy currently in effect
	Shedding bool   // emergency DropNewest override engaged
	Closed   bool   // producer side has signaled end of stream
}

func ingestMetricsFrom(name string, st ingest.Stats) IngestMetrics {
	return IngestMetrics{
		Name:     name,
		Accepted: st.Accepted,
		Dropped:  st.Dropped,
		Len:      st.Len,
		Cap:      st.Cap,
		MaxLen:   st.MaxLen,
		LagNS:    st.LagNS,
		Policy:   st.Policy.String(),
		Shedding: st.Shedding,
		Closed:   st.Closed,
	}
}

// ShardMetrics is a snapshot of one shard region's load distribution.
type ShardMetrics struct {
	Name     string   // the region's name (the original operator's)
	N        int      // current replica count
	In       []uint64 // elements routed to each replica so far
	Replicas []string // replica operator names, for joining against Ops
	// Skew is max(In)/mean(In): 1.0 is a perfectly even split, n means one
	// replica absorbed everything. 0 before any input arrives.
	Skew float64
	// Retained is the total rows of operator state currently held across
	// the region's replicas (window/join/dedup state a reshard must port).
	Retained int
	// PauseEstNS estimates the stop-the-region pause a reshard of this
	// region would take right now, from Retained and the deployment's
	// measured per-row handoff cost. 0 when the engine is not deployed.
	PauseEstNS int64
}

// QueryMetrics is a snapshot of one registered standing query (AddQuery),
// making multi-query plan sharing measurable: Shared counts the query's
// operators whose refcount exceeds one (subsumed into another query's
// prefix), Private the operators only this query pays for — including its
// shard-region members, which are never shared.
type QueryMetrics struct {
	Name      string
	Ops       int     // operators the query references (Shared + Private)
	Shared    int     // operators shared with at least one other query
	Private   int     // operators exclusively owned (incl. shard regions)
	Out       uint64  // results delivered to the query's sink
	OutRateHz float64 // mean delivery rate from the first result, sampled every few hundred
}

// Metrics is an engine-wide snapshot.
type Metrics struct {
	Mode      Mode // current scheduling mode
	Executors int  // live partition executors
	Ops       []OpMetrics
	Queues    []QueueMetrics
	Ingest    []IngestMetrics // external sources' ingress buffers
	Shards    []ShardMetrics  // shard regions' per-replica load
	Queries   []QueryMetrics  // registered standing queries, in registration order
	VOs       [][]int
}

// Metrics captures a snapshot of per-operator and per-queue statistics of
// a running (or finished) engine.
func (e *Engine) Metrics() Metrics {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var m Metrics
	m.Mode = e.cfg.Mode
	if e.d != nil {
		m.Executors = len(e.d.Execs())
	}
	for _, n := range e.g.Ops() {
		st := n.Op.Stats()
		m.Ops = append(m.Ops, OpMetrics{
			Name:           n.Name,
			In:             st.In(),
			Out:            st.Out(),
			Selectivity:    st.Selectivity(),
			CostNS:         st.CostNS(),
			InterarrivalNS: st.InterarrivalNS(),
			PlannedCostNS:  n.CostNS,
		})
	}
	sort.Slice(m.Ops, func(i, j int) bool { return m.Ops[i].Name < m.Ops[j].Name })
	for _, n := range e.g.Sources() {
		if is, ok := n.Src.(interface{ IngestStats() ingest.Stats }); ok {
			m.Ingest = append(m.Ingest, ingestMetricsFrom(n.Name, is.IngestStats()))
		}
	}
	sort.Slice(m.Ingest, func(i, j int) bool { return m.Ingest[i].Name < m.Ingest[j].Name })
	for _, gr := range e.g.ShardGroups() {
		sm := ShardMetrics{Name: gr.Name, N: len(gr.Replicas)}
		var max, total uint64
		for _, rn := range gr.Replicas {
			in := rn.Op.Stats().In()
			sm.In = append(sm.In, in)
			sm.Replicas = append(sm.Replicas, rn.Name)
			total += in
			if in > max {
				max = in
			}
			if rr, ok := rn.Op.(interface{ RetainedRows() int }); ok {
				sm.Retained += rr.RetainedRows()
			}
		}
		if total > 0 {
			sm.Skew = float64(max) * float64(sm.N) / float64(total)
		}
		if e.d != nil {
			sm.PauseEstNS = e.d.ReshardPauseEstimateNS(sm.Retained)
		}
		m.Shards = append(m.Shards, sm)
	}
	for _, name := range e.queryNamesLocked() {
		reg := e.queries[name]
		qm := QueryMetrics{Name: name}
		for _, id := range reg.nodes {
			if e.refs[id] > 1 {
				qm.Shared++
			} else {
				qm.Private++
			}
		}
		qm.Private += len(reg.regionNodeIDs())
		qm.Ops = qm.Shared + qm.Private
		qm.Out = reg.tap.out.Load()
		first, last := reg.tap.firstNS.Load(), reg.tap.lastNS.Load()
		if first > 0 && last > first {
			qm.OutRateHz = float64(reg.tap.lastOut.Load()) / (float64(last-first) / 1e9)
		}
		m.Queries = append(m.Queries, qm)
	}
	if e.d != nil {
		for _, q := range e.d.Queues() {
			m.Queues = append(m.Queues, QueueMetrics{
				Name:       q.Name(),
				Len:        q.Len(),
				MaxLen:     q.MaxLen(),
				Enqueued:   q.Enqueued(),
				Dequeued:   q.Dequeued(),
				FullBlocks: q.FullBlocks(),
				BlockedNS:  q.BlockedNS(),
				Overshoot:  q.Overshoot(),
				Closed:     q.Closed(),
			})
		}
		m.VOs = e.d.VOs()
	}
	return m
}

// String renders the snapshot as a small report.
func (m Metrics) String() string {
	var b strings.Builder
	b.WriteString("operators:\n")
	for _, o := range m.Ops {
		fmt.Fprintf(&b, "  %-16s in=%-10d out=%-10d sel=%.4f cost=%.0fns d=%.0fns\n",
			o.Name, o.In, o.Out, o.Selectivity, o.CostNS, o.InterarrivalNS)
	}
	b.WriteString("queues:\n")
	for _, q := range m.Queues {
		fmt.Fprintf(&b, "  %-28s len=%-8d max=%-8d enq=%-10d deq=%-10d blocks=%-8d blockedms=%-8d over=%-6d closed=%v\n",
			q.Name, q.Len, q.MaxLen, q.Enqueued, q.Dequeued, q.FullBlocks, q.BlockedNS/1e6, q.Overshoot, q.Closed)
	}
	if len(m.Ingest) > 0 {
		b.WriteString("ingest:\n")
		for _, in := range m.Ingest {
			fmt.Fprintf(&b, "  %-16s accepted=%-10d dropped=%-10d len=%-6d cap=%-6d max=%-6d lag=%-10d policy=%s shed=%v closed=%v\n",
				in.Name, in.Accepted, in.Dropped, in.Len, in.Cap, in.MaxLen, in.LagNS, in.Policy, in.Shedding, in.Closed)
		}
	}
	if len(m.Shards) > 0 {
		b.WriteString("shards:\n")
		for _, s := range m.Shards {
			fmt.Fprintf(&b, "  %-16s n=%-3d skew=%.2f retained=%-8d pauseest=%.1fms in=%v\n",
				s.Name, s.N, s.Skew, s.Retained, float64(s.PauseEstNS)/1e6, s.In)
		}
	}
	if len(m.Queries) > 0 {
		b.WriteString("queries:\n")
		for _, q := range m.Queries {
			fmt.Fprintf(&b, "  %-16s ops=%-4d shared=%-4d private=%-4d out=%-10d rate=%.1f/s\n",
				q.Name, q.Ops, q.Shared, q.Private, q.Out, q.OutRateHz)
		}
	}
	if len(m.VOs) > 0 {
		fmt.Fprintf(&b, "virtual operators: %v\n", m.VOs)
	}
	return b.String()
}

// DOT renders the engine's query graph in Graphviz syntax, marking queue
// placements when the engine is deployed.
func (e *Engine) DOT() string {
	var cut map[graph.EdgeKey]bool
	if e.d != nil {
		cut = e.d.Cut()
	}
	return e.g.DOT(cut)
}
