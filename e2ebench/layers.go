package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	hmts "github.com/dsms/hmts"
)

// pollEvery is the snapshot period of the traced run.
const pollEvery = 10 * time.Millisecond

// polled accumulates the traced run's periodic engine snapshots.
type polled struct {
	lag       Hist // ingest.LagNS samples
	tsWaiting float64
	tsRunning float64
	n         float64
	retained  int
	pauseEst  int64
	queueMax  int
}

// poll samples eng.Metrics() every pollEvery until the returned stop
// function is called; stop returns once the poller has exited. Untraced
// runs do not poll.
func (r *run) poll(eng *hmts.Engine) (stop func()) {
	if r.tr == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			t0 := now()
			m := eng.Metrics()
			r.tr.record(spanMetrics, t0, now())
			p := &r.polled
			for _, in := range m.Ingest {
				p.lag.Record(in.LagNS)
			}
			if ts := eng.Deployment().TS(); ts != nil {
				p.tsWaiting += float64(ts.Waiting())
				p.tsRunning += float64(ts.Running())
			}
			p.n++
			for _, s := range m.Shards {
				p.retained = max(p.retained, s.Retained)
				p.pauseEst = max(p.pauseEst, s.PauseEstNS)
			}
			for _, q := range m.Queues {
				p.queueMax = max(p.queueMax, q.MaxLen)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// opRole maps an operator name onto the fixed op.<role>.* metric names.
func opRole(name string) string {
	switch {
	case strings.HasSuffix(name, "/split"), strings.HasSuffix(name, "/merge"):
		return "" // a shard region's routing, not one of the query's operators
	case strings.HasPrefix(name, "costsim"):
		return "costsim"
	case strings.HasPrefix(name, "scale"):
		return "map"
	case strings.HasPrefix(name, "cnt"), strings.HasPrefix(name, "count("):
		return "agg"
	}
	return "filter"
}

// opLayers reports per-role operator counters: in and out summed over the
// role's operators, cost as their input-weighted mean.
func (r *run) opLayers(ops []hmts.OpMetrics) {
	type acc struct{ in, out, cost float64 }
	roles := map[string]*acc{}
	for _, o := range ops {
		role := opRole(o.Name)
		if role == "" {
			continue
		}
		a := roles[role]
		if a == nil {
			a = &acc{}
			roles[role] = a
		}
		a.in += float64(o.In)
		a.out += float64(o.Out)
		a.cost += o.CostNS * float64(o.In)
	}
	for role, a := range roles {
		r.layer["op."+role+".in"] = a.in
		r.layer["op."+role+".out"] = a.out
		if a.in > 0 {
			r.layer["op."+role+".cost_ns"] = a.cost / a.in
		}
	}
}

// engineLayers reads the per-layer counters of a drained deployment that
// carried n elements.
func (r *run) engineLayers(d *deployment, n int) {
	m := d.eng.Metrics()
	r.opLayers(m.Ops)
	var enq, blocks, over uint64
	var blocked int64
	var lenMax int
	for _, q := range m.Queues {
		enq += q.Enqueued
		blocks += q.FullBlocks
		over += q.Overshoot
		blocked += q.BlockedNS
		lenMax = max(lenMax, q.MaxLen)
	}
	r.layer["queue.count"] = float64(len(m.Queues))
	r.layer["queue.hops_per_elem"] = float64(enq) / float64(n)
	r.layer["queue.len_max"] = float64(lenMax)
	r.layer["queue.full_blocks"] = float64(blocks)
	r.layer["queue.blocked_ms"] = float64(blocked) / 1e6
	r.layer["queue.overshoot"] = float64(over)
	r.layer["sched.executors"] = float64(m.Executors)
	r.layer["sched.vos"] = float64(len(m.VOs))
	var procMax, procSum float64
	execs := d.eng.Deployment().Execs()
	for _, x := range execs {
		p := float64(x.Processed())
		procMax = max(procMax, p)
		procSum += p
	}
	if procSum > 0 {
		r.layer["sched.exec_skew"] = procMax * float64(len(execs)) / procSum
	}
	r.layer["plan.ops"] = float64(len(m.Ops))
	r.layer["plan.cut_edges"] = float64(len(d.eng.Deployment().Cut()))
	for _, in := range m.Ingest {
		r.layer["ingest.backlog_max"] = max(r.layer["ingest.backlog_max"], float64(in.MaxLen))
	}
	var shared, private int
	for _, q := range m.Queries {
		shared += q.Shared
		private += q.Private
	}
	r.layer["query.shared_ops"] = float64(shared)
	r.layer["query.private_ops"] = float64(private)
	var calls, elems uint64
	for _, s := range append(d.sinks, d.timed...) {
		dg, c, _ := s.snapshot()
		calls += c
		elems += dg.n
	}
	if calls > 0 {
		r.layer["sink.elems_per_call"] = float64(elems) / float64(calls)
	}
}

// polledLayers reports what the traced run's snapshot polling and live
// mutations saw.
func (r *run) polledLayers() {
	p := &r.polled
	r.layer["ingest.lag_p99_us"] = p.lag.Quantile(0.99) / 1e3
	if p.n > 0 {
		r.layer["sched.ts_waiting_mean"] = p.tsWaiting / p.n
		r.layer["sched.ts_running_mean"] = p.tsRunning / p.n
	}
	r.layer["shard.retained_rows"] = float64(p.retained)
	r.layer["shard.pause_est_ms"] = float64(p.pauseEst) / 1e6
	r.layer["queue.len_max"] = max(r.layer["queue.len_max"], float64(p.queueMax))
	r.layer["api.metrics_us"] = r.tr.p50(spanMetrics) / 1e3
	if m := &r.muts; m.add.Count()+m.drop.Count() > 0 {
		var splice Hist
		splice.Merge(&m.add)
		splice.Merge(&m.drop)
		r.layer["splice_p50_us"] = splice.Quantile(0.5) / 1e3
		r.layer["api.addquery_us"] = m.add.Quantile(0.5) / 1e3
		r.layer["api.dropquery_us"] = m.drop.Quantile(0.5) / 1e3
	}
	if m := &r.muts; m.reshard.Count() > 0 {
		r.layer["reshard_p50_ms"] = m.reshard.Quantile(0.5) / 1e6
		r.layer["api.reshard_max_ms"] = float64(m.reshard.Max()) / 1e6
	}
}

// mutations collects the live mutations of one phase.
type mutations struct {
	add, drop, reshard Hist
	attempted          int64
	errs               []string
}

// timed runs one mutation call, recording its wall time under name, and
// returns its error.
func (m *mutations) timed(r *run, name string, h *Hist, call func() error) error {
	m.attempted++
	t0 := now()
	err := call()
	t1 := now()
	r.tr.record(name, t0, t1)
	if err != nil {
		m.errs = append(m.errs, fmt.Sprintf("%s: %v", name, err))
		return err
	}
	h.Record(t1 - t0)
	return nil
}

func (r *run) addMutations(m *mutations) {
	r.attempted += m.attempted
	for _, e := range m.errs {
		r.fail(1, "mutation %s", e)
	}
	r.muts.add.Merge(&m.add)
	r.muts.drop.Merge(&m.drop)
	r.muts.reshard.Merge(&m.reshard)
}

// watchdog ends the process with an error if the run outlives any sane
// duration — a wedged engine must fail the run, not hang it.
func (r *run) watchdog() (stop func()) {
	limit := 3*time.Duration(r.seconds*float64(time.Second)) + 90*time.Second
	t := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: FAIL: run exceeded %v; the engine is wedged\n", r.workload, limit)
		os.Exit(1)
	})
	return func() { t.Stop() }
}

func (r *run) logLatency(rate int, h *Hist, steals []float64) {
	r.logf("latency at %d/s: p50 %.1fus p99 %.1fus max %.1fus over %d results of the quieter slices; steal per slice %s",
		rate, h.Quantile(0.5)/1e3, h.Quantile(0.99)/1e3, float64(h.Max())/1e3, h.Count(), fmtSteals(steals))
}

// logRounds prints every capacity round as rate@steal.
func (r *run) logRounds(procs int, rs []round) {
	var b strings.Builder
	for i, x := range rs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0fk@%.0f%%", x.rate/1e3, 100*x.steal)
	}
	r.logf("capacity at %d procs, el/s at steal: %s", procs, b.String())
}

func fmtSteals(steals []float64) string {
	var b strings.Builder
	for i, s := range steals {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f%%", 100*s)
	}
	return b.String()
}
