package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Span names, one per layer boundary the benchmark's own code crosses.
// Spans inside the engine are out of scope: everything between a push and
// the sink call is the engine's, and shows up as unattributed time.
const (
	spanPhase     = "phase"     // one measurement phase (root)
	spanPush      = "push"      // ExternalSource.PushBatch, or one PUSHB frame write
	spanSink      = "sink"      // one sink delivery call
	spanRun       = "run"       // Engine.Run: planning, placement and deployment
	spanAddQuery  = "addquery"  // Engine.AddQuery on a live engine
	spanDropQuery = "dropquery" // Engine.DropQuery on a live engine
	spanReshard   = "reshard"   // Engine.Reshard on a live engine
	spanMetrics   = "metrics"   // Engine.Metrics, or a METRICS round trip
	spanQuery     = "query"     // QUERY → OK over the wire (ql parse and plan)
)

var spanNames = []string{spanPhase, spanPush, spanSink, spanRun, spanAddQuery, spanDropQuery, spanReshard, spanMetrics, spanQuery}

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing phase span, -1 for none
}

// maxSpans bounds the in-memory span log (about 40 MB); spans beyond it
// still count in the per-name totals but are not kept for the dump.
const maxSpans = 1 << 20

// tracer keeps spans in memory and writes them out when the run ends. It
// is safe for concurrent use: sinks record from engine goroutines.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	count   map[string]int64
	total   map[string]int64 // summed duration per name
	durs    map[string]*Hist
	dropped int64
	cur     atomic.Int32 // index of the open phase span, -1 between phases
}

func newTracer() *tracer {
	t := &tracer{count: map[string]int64{}, total: map[string]int64{}, durs: map[string]*Hist{}}
	for _, n := range spanNames {
		t.durs[n] = new(Hist)
	}
	t.cur.Store(-1)
	return t
}

// record logs one finished span under the current phase. A nil tracer
// records nothing, so call sites need no branch.
func (t *tracer) record(name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.addLocked(span{Name: name, Start: start, End: end, Parent: t.cur.Load()})
	t.mu.Unlock()
}

func (t *tracer) addLocked(s span) {
	t.count[s.Name]++
	t.total[s.Name] += s.End - s.Start
	t.durs[s.Name].Record(s.End - s.Start)
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// beginPhase opens a root span; endPhase closes it. Phases do not nest.
func (t *tracer) beginPhase() {
	if t == nil {
		return
	}
	t.mu.Lock()
	// The end is filled in by endPhase; the totals are settled there too.
	t.spans = append(t.spans, span{Name: spanPhase, Start: now(), Parent: -1})
	t.cur.Store(int32(len(t.spans) - 1))
	t.mu.Unlock()
}

func (t *tracer) endPhase() {
	if t == nil {
		return
	}
	t.mu.Lock()
	i := t.cur.Load()
	t.cur.Store(-1)
	p := &t.spans[i]
	p.End = now()
	t.count[spanPhase]++
	t.total[spanPhase] += p.End - p.Start
	t.durs[spanPhase].Record(p.End - p.Start)
	t.mu.Unlock()
}

// p50 returns the median duration of the named spans in nanoseconds.
func (t *tracer) p50(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.durs[name].Quantile(0.5)
}

// busy returns the summed duration of every span recorded so far under
// the given names, including spans beyond the kept log.
func (t *tracer) busy(names ...string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s int64
	for _, n := range names {
		s += t.total[n]
	}
	return s
}

// selfTimes returns each name's self time: its spans' summed duration
// minus, for phase spans, the part of each phase that its child spans
// cover (children on different goroutines overlap, so covered time is the
// union of their intervals, not their sum).
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]int64{}
	for n, v := range t.total {
		self[n] = v
	}
	kids := map[int32][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for p, iv := range kids {
		self[spanPhase] -= union(iv, t.spans[p].Start, t.spans[p].End)
	}
	return self
}

// union returns the total length of the intervals' union, clipped to
// [lo, hi].
func union(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// dump writes the kept spans as JSON to path.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace turns the span log into the span.* metrics, writes it under
// .bench_build/trace in the working directory, and prints where.
func (r *run) finishTrace() {
	t := r.tr
	self := t.selfTimes()
	for _, n := range spanNames {
		r.layer["span."+n+".self_ms"] = float64(self[n]) / 1e6
		r.layer["span."+n+".count"] = float64(t.count[n])
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	if err := t.dump(path); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: trace dump: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s (%d beyond the cap counted only)\n", len(t.spans), path, t.dropped)
	for _, n := range spanNames {
		if c := t.count[n]; c > 0 {
			r.logf("span %-9s %8d calls %10.1f ms self", n, c, float64(self[n])/1e6)
		}
	}
	r.logf("traced minus untraced: %+.0f el/s of capacity, %+.1f us of high-rate p50 latency",
		r.layer["trace.overhead_capacity_eps"], r.layer["trace.overhead_lat_hi_p50_us"])
	r.logf("spans account for %.0f%% of capacity-round CPU and %.0f%% of high-rate p50 latency; the rest is inside the engine (ring wait, operator chain, queues, executors) and unattributed",
		100*r.layer["trace.cpu_attributed_share"], 100*r.layer["trace.lat_attributed_share"])
}

// layerMetrics are the per-layer metrics of the traced run. A workload
// that does not exercise a layer reports 0 for it (NOTES.md lists which).
var layerMetrics = []metricDef{
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"gen.sent", "count"},
	{"wire.frame_write_ns_per_elem", "ns"},
	{"wire.ack_rtt_p50_us", "us"},
	{"wire.result_bytes_per_elem", "B"},
	{"wire.metrics_rtt_ms", "ms"},
	{"wire.daemon_cpu_ns_per_elem", "ns"},
	{"ql.query_rtt_us", "us"},
	{"ingest.push_ns_per_elem", "ns"},
	{"ingest.backlog_max", "count"},
	{"ingest.lag_p99_us", "us"},
	{"ingest.accepted", "count"},
	{"ingest.dropped", "count"},
	{"op.filter.cost_ns", "ns"},
	{"op.filter.in", "count"},
	{"op.filter.out", "count"},
	{"op.map.cost_ns", "ns"},
	{"op.map.in", "count"},
	{"op.map.out", "count"},
	{"op.agg.cost_ns", "ns"},
	{"op.agg.in", "count"},
	{"op.agg.out", "count"},
	{"op.costsim.cost_ns", "ns"},
	{"op.costsim.in", "count"},
	{"op.costsim.out", "count"},
	{"sink.elems_per_call", "count"},
	{"queue.count", "count"},
	{"queue.hops_per_elem", "count"},
	{"queue.len_max", "count"},
	{"queue.full_blocks", "count"},
	{"queue.blocked_ms", "ms"},
	{"queue.overshoot", "count"},
	{"sched.executors", "count"},
	{"sched.vos", "count"},
	{"sched.exec_skew", "ratio"},
	{"sched.ts_waiting_mean", "count"},
	{"sched.ts_running_mean", "count"},
	{"plan.run_us", "us"},
	{"plan.ops", "count"},
	{"plan.cut_edges", "count"},
	{"api.addquery_us", "us"},
	{"api.dropquery_us", "us"},
	{"api.reshard_max_ms", "ms"},
	{"api.metrics_us", "us"},
	{"splice_p50_us", "us"},
	{"reshard_p50_ms", "ms"},
	{"query.shared_ops", "count"},
	{"query.private_ops", "count"},
	{"shard.retained_rows", "count"},
	{"shard.pause_est_ms", "ms"},
	{"lat.lo_p99_us", "us"},
	{"lat.hi_p99_us", "us"},
	{"lat.max_us", "us"},
	{"host.steal_pct", "%"},
	{"trace.overhead_capacity_eps", "1/s"},
	{"trace.overhead_lat_hi_p50_us", "us"},
	{"trace.cpu_attributed_share", "ratio"},
	{"trace.lat_attributed_share", "ratio"},
	{"span.phase.self_ms", "ms"},
	{"span.phase.count", "count"},
	{"span.push.self_ms", "ms"},
	{"span.push.count", "count"},
	{"span.sink.self_ms", "ms"},
	{"span.sink.count", "count"},
	{"span.run.self_ms", "ms"},
	{"span.run.count", "count"},
	{"span.addquery.self_ms", "ms"},
	{"span.addquery.count", "count"},
	{"span.dropquery.self_ms", "ms"},
	{"span.dropquery.count", "count"},
	{"span.reshard.self_ms", "ms"},
	{"span.reshard.count", "count"},
	{"span.metrics.self_ms", "ms"},
	{"span.metrics.count", "count"},
	{"span.query.self_ms", "ms"},
	{"span.query.count", "count"},
}
