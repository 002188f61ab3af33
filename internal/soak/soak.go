// Package soak drives the engine the way production would and judges the
// outcome. A Scenario describes open-loop load (a workload.Shape rate
// curve over zipf-keyed elements pushed through the external ingest
// path), a timeline of faults to inject mid-run (slow-consumer stalls,
// expensive-operator cost spikes, live mode switches, shed
// engage/release), and a set of slo.Assertions over the per-second
// latency/throughput/backlog series the run emits. Run executes the
// scenario against a real engine and returns a pass/fail Result — the
// standing verification layer behind `make soakshort` and cmd/hmtssoak.
//
// Load generation is open loop: elements are stamped with their
// *scheduled* emission time on the shared ingest clock, so when the
// engine (or a Block-policy ingress) pushes back, the delay is charged to
// the elements' measured latency instead of silently stretching the
// schedule — the coordinated-omission correction that makes open-loop
// percentiles honest.
package soak

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/adapt"
	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/ingest"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/simtime"
	"github.com/dsms/hmts/internal/slo"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/workload"
)

// FaultKind names a fault-injection action.
type FaultKind int

// The fault kinds.
const (
	// FaultStall makes the terminal consumer sleep StallNS per element
	// between At and Until — a slow downstream client.
	FaultStall FaultKind = iota
	// FaultCostSpike raises the analytics operator's per-element cost to
	// CostNS between At and Until — an expensive-predicate phase.
	FaultCostSpike
	// FaultSwitchMode live-switches the engine to Mode/Strategy at At.
	FaultSwitchMode
	// FaultRebalance re-places queues from measured stats at At.
	FaultRebalance
	// FaultShed engages emergency shedding at At and releases it at Until.
	FaultShed
	// FaultReshard changes the replica count of the stateful aggregation's
	// shard region to Shards at At (requires Scenario.Shards > 0).
	FaultReshard
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultStall:
		return "stall"
	case FaultCostSpike:
		return "cost-spike"
	case FaultSwitchMode:
		return "switch-mode"
	case FaultRebalance:
		return "rebalance"
	case FaultShed:
		return "shed"
	case FaultReshard:
		return "reshard"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one timed injection. At is the onset offset into the run;
// Until (where meaningful) is the release offset.
type Fault struct {
	Kind      FaultKind
	At, Until time.Duration
	// StallNS is the per-element consumer sleep for FaultStall.
	StallNS int64
	// CostNS is the spiked per-element cost for FaultCostSpike.
	CostNS int64
	// Mode and Strategy parameterize FaultSwitchMode.
	Mode     hmts.Mode
	Strategy string
	// Shards is the new replica count for FaultReshard.
	Shards int
}

// Scenario is a declarative soak run.
type Scenario struct {
	Name        string
	Description string
	// Duration is how long the load generator pushes.
	Duration time.Duration
	// Shape is the open-loop rate curve.
	Shape workload.Shape
	// Keys and ZipfS parameterize the zipf-keyed element stream (ZipfS <=
	// 1 selects uniform keys); Seed makes it deterministic.
	Keys  int
	ZipfS float64
	Seed  uint64
	// Mode, Strategy and QueueBound configure the engine.
	Mode       hmts.Mode
	Strategy   string
	QueueBound int
	// Policy and Buffer configure the external ingress edge.
	Policy hmts.OverloadPolicy
	Buffer int
	// OpCostNS is the analytics stage's baseline per-element cost.
	OpCostNS int64
	// Window is the aggregation window of the stateful branch.
	Window time.Duration
	// Shards > 0 shards the stateful aggregation across that many
	// key-partitioned replicas (and enables FaultReshard).
	Shards int
	// AggCostNS is the simulated per-element cost of the aggregation's
	// group function (0 = free). It burns inside the replicas — not on
	// the serial split path — so growing the replica count genuinely
	// divides it.
	AggCostNS int64
	// Autoscale, when set, closes the control loop: an adapt.Controller
	// running its reshard decision grows and shrinks the aggregation's
	// replica count from measured c(v)/d(v), with no faults scripting
	// the reshards.
	Autoscale *AutoscaleSpec
	// Churn, when set, registers and drops standing queries against the
	// ingress stream mid-run through Engine.AddQuery/DropQuery — the
	// multi-query subsumption path spliced live under load.
	Churn *ChurnSpec
	// Faults is the injection timeline.
	Faults []Fault
	// SLOs are the assertions that decide pass/fail.
	SLOs []slo.Assertion
}

// AutoscaleSpec parameterizes the scenario's autoscaling loop and the
// acceptance bounds it is judged by.
type AutoscaleSpec struct {
	// Period is the controller's step interval; Cooldown the minimum gap
	// between executed actions (0 = none).
	Period   time.Duration
	Cooldown time.Duration
	// Headroom, MaxReplicas and PauseBudget map onto adapt.Config
	// (zero values take the planner's defaults).
	Headroom    float64
	MaxReplicas int
	PauseBudget time.Duration
	// MaxReshards bounds how many reshards may execute over the run
	// (flap guard; 0 = unbounded). RequireGrow and RequireShrink assert
	// the loop both grew and shrank the region — the ramp must scale it
	// out and the decay must scale it back with zero scripted reshards.
	MaxReshards   int
	RequireGrow   bool
	RequireShrink bool
}

// ChurnSpec parameterizes mid-run query churn: Queries registrations are
// spread one per Stagger starting at Start, every query sharing a common
// selective prefix (the subsumption rewriter merges them at that prefix)
// with a private per-query suffix; once more than MaxAlive are standing,
// each new registration also drops the oldest, so the run continuously
// exercises both the live-add and the live-prune splice paths while the
// load generator is mid-burst.
type ChurnSpec struct {
	// Start is the offset of the first registration; Stagger the gap
	// between registrations (defaults to 100ms when <= 0).
	Start   time.Duration
	Stagger time.Duration
	// Queries is how many registrations the run performs in total.
	Queries int
	// MaxAlive caps concurrently standing churn queries (0 = no drops).
	MaxAlive int
}

// Result is a completed run.
type Result struct {
	Scenario string
	Series   []slo.Second
	// Violations are the failed SLO assertions (empty on a passing run).
	Violations []error
	// Sent, Observed and Dropped tally the run end to end: pushed by the
	// load generator, measured at the sink, dropped at the ingress edge.
	Sent, Observed, Dropped uint64
	// Reshards counts the autoscaler's executed replica-count changes
	// (zero when the scenario has no Autoscale spec).
	Reshards int
	// Err is a run-level failure — an engine fault or a wedged teardown —
	// which fails the scenario regardless of the SLOs.
	Err error
}

// Passed reports whether the run met every assertion and finished clean.
func (r *Result) Passed() bool { return r.Err == nil && len(r.Violations) == 0 }

// monitorSink terminates the measured path: it charges each element's
// end-to-end latency to the slo.Monitor and doubles as the slow-consumer
// fault site.
type monitorSink struct {
	mon     *slo.Monitor
	stallNS atomic.Int64
	seen    atomic.Uint64
	done    chan struct{}
}

func newMonitorSink(mon *slo.Monitor) *monitorSink {
	return &monitorSink{mon: mon, done: make(chan struct{})}
}

// ProcessBatch implements op.Sink; the stall is charged per element
// so a burst does not dilute the injected slowness.
func (k *monitorSink) ProcessBatch(_ int, es []stream.Element) {
	if d := k.stallNS.Load(); d > 0 {
		time.Sleep(time.Duration(d) * time.Duration(len(es)))
	}
	k.mon.ObserveBatch(ingest.Now(), es)
	k.seen.Add(uint64(len(es)))
}

// Done implements op.Sink.
func (k *monitorSink) Done(int) { close(k.done) }

// Run executes the scenario, streaming one per-second report line to w as
// each second completes (nil w is silent).
func Run(sc Scenario, w io.Writer) *Result {
	res := &Result{Scenario: sc.Name}
	if sc.Duration <= 0 || sc.Shape == nil {
		res.Err = fmt.Errorf("soak: scenario %q needs a duration and a rate shape", sc.Name)
		return res
	}
	logf := func(format string, args ...any) {
		if w != nil {
			fmt.Fprintf(w, format+"\n", args...)
		}
	}

	eng := hmts.New()
	ext := hmts.External("ingress", hmts.ExternalConfig{
		Policy:   sc.Policy,
		Buffer:   sc.Buffer,
		RateHint: sc.Shape.HzAt(0),
	})
	src := eng.Source("ingress", ext.Spec())

	// The measured path: a cheap stateless prefix, the cost-injectable
	// analytics stage, and the monitor sink. A stateful windowed
	// aggregation rides the same source so mode switches migrate real
	// operator state.
	mon := slo.NewMonitor()
	sink := newMonitorSink(mon)
	cost := op.NewCostSim("analytics", sc.OpCostNS, nil)
	mapped := src.
		Where("where", func(e hmts.Element) bool { return e.Key >= 0 }).
		Map("map", func(e hmts.Element) hmts.Element { e.Val++; return e })
	g := eng.Graph()
	nc := g.AddOp("analytics", cost, float64(max64(sc.OpCostNS, 1)), 1)
	g.Connect(mapped.Node(), nc, 0)
	ns := g.AddSink("monitor", sink)
	g.Connect(nc, ns, 0)
	window := sc.Window
	if window <= 0 {
		window = time.Second
	}
	// The stateful aggregation is built by hand rather than through the
	// builder: the builder reuses the group function as the shard
	// partition key, and this branch's group function may carry a
	// simulated per-element cost (AggCostNS) that must burn inside the
	// replicas — on the split's serial routing path it could never be
	// divided by scaling out.
	aggGroup := func(e stream.Element) int64 { return e.Key }
	if sc.AggCostNS > 0 {
		aggGroup = func(e stream.Element) int64 {
			simtime.Busy(sc.AggCostNS)
			return e.Key
		}
	}
	newAgg := func(name string) *op.WindowAgg {
		return op.NewWindowAgg(name, op.AggCount, window.Nanoseconds(), aggGroup)
	}
	na := g.AddOp("agg", newAgg("agg"), float64(max64(sc.AggCostNS, 1500)), 1)
	na.Shardable = &graph.ShardSpec{
		Ins: 1,
		Key: func(_ int, e stream.Element) int64 { return e.Key },
		New: func(i int) op.Operator { return newAgg(fmt.Sprintf("agg#%d", i)) },
	}
	g.Connect(src.Node(), na, 0)
	aggDone := op.NewNull(1)
	g.Connect(na, g.AddSink("agg-null", aggDone), 0)
	if sc.Shards > 0 {
		if _, err := g.ApplyShard(na, sc.Shards); err != nil {
			res.Err = fmt.Errorf("soak: shard: %w", err)
			return res
		}
	}

	if err := eng.Run(hmts.RunConfig{
		Mode:       sc.Mode,
		Strategy:   sc.Strategy,
		QueueBound: sc.QueueBound,
	}); err != nil {
		res.Err = fmt.Errorf("soak: engine start: %w", err)
		return res
	}

	// The autoscaling loop, when the scenario asks for one: a real
	// adapt.Controller stepping a real planner against live metrics. It
	// stops before the drain so teardown is not resharded under.
	var ctl *adapt.Controller
	if as := sc.Autoscale; as != nil {
		period := as.Period
		if period <= 0 {
			period = 500 * time.Millisecond
		}
		ctl = adapt.New(eng, adapt.Config{
			Period:      period,
			Cooldown:    as.Cooldown,
			Reshard:     true,
			Headroom:    as.Headroom,
			MaxReplicas: as.MaxReplicas,
			PauseBudget: as.PauseBudget,
		})
		ctl.Start()
	}

	logf("scenario %s: %s", sc.Name, sc.Description)
	start := ingest.Now()
	stopLoad := make(chan struct{})
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		res.Sent = drive(ext, sc, start, stopLoad)
		ext.Close()
	}()

	faultDone := runFaults(eng, sc, cost, sink, mon, start, logf)
	churnDone, churnErr := runChurn(eng, src, sc.Churn, mon, start, stopLoad, logf)

	// Per-second collection: roll the monitor and attach engine gauges.
	var lastDropped uint64
	lastN := 0
	roll := func() {
		st := ext.Stats()
		var ga slo.Gauges
		ga.Dropped = st.Dropped - lastDropped
		lastDropped = st.Dropped
		ga.Backlog = st.Len
		m := eng.Metrics()
		for _, q := range m.Queues {
			if q.Len > ga.QueueLen {
				ga.QueueLen = q.Len
			}
			ga.Overshoot += q.Overshoot
		}
		// Annotate the series when the autoscaler changed the region size
		// since the last roll.
		if sc.Autoscale != nil {
			for _, s := range m.Shards {
				if s.Name == "agg" && s.N != lastN {
					if lastN != 0 {
						mon.Event(fmt.Sprintf("autoscale:%d", s.N))
					}
					lastN = s.N
				}
			}
		}
		sec := mon.Roll(ga)
		logf("%s", sec.String())
	}

	tick := time.NewTicker(time.Second)
	deadline := time.After(sc.Duration)
collect:
	for {
		select {
		case <-tick.C:
			roll()
		case <-deadline:
			break collect
		}
	}
	tick.Stop()
	close(stopLoad)
	// Let the load generator finish its last scheduled pushes naturally —
	// it ends within milliseconds of the deadline — then force-close the
	// ingress (idempotent) so a Block-policy pusher parked on a full
	// buffer cannot keep the run alive indefinitely.
	select {
	case <-loadDone:
	case <-time.After(5 * time.Second):
		ext.Close()
	}
	<-loadDone
	<-faultDone
	<-churnDone
	if *churnErr != nil && res.Err == nil {
		res.Err = fmt.Errorf("soak: query churn: %w", *churnErr)
	}
	if ctl != nil {
		ctl.Stop()
	}

	// Drain: the closed ingress propagates Done through the graph. A
	// wedged engine is itself an SLO catastrophe, so guard with a
	// watchdog instead of waiting forever.
	grace := sc.Duration/2 + 15*time.Second
	drained := make(chan struct{})
	go func() {
		<-sink.done
		aggDone.Wait()
		eng.Wait()
		close(drained)
	}()
	if !waitWithin(drained, grace, roll) {
		eng.Stop()
		res.Err = fmt.Errorf("soak: engine did not drain within %v of close (deadlock?)", grace)
	} else {
		roll() // capture the tail second
	}
	if err := eng.Err(); err != nil && res.Err == nil {
		res.Err = fmt.Errorf("soak: engine fault: %w", err)
	}

	res.Series = mon.Series()
	res.Observed = sink.seen.Load()
	res.Dropped = ext.Stats().Dropped
	res.Violations = slo.CheckAll(res.Series, sc.SLOs)
	if as := sc.Autoscale; as != nil {
		cur := sc.Shards
		if cur < 1 {
			cur = 1
		}
		grew, shrank := 0, 0
		for _, ev := range ctl.Events() {
			if ev.Action != adapt.Reshard || ev.Dropped || ev.Err != nil {
				continue
			}
			res.Reshards++
			if ev.Shards > cur {
				grew++
			} else if ev.Shards < cur {
				shrank++
			}
			cur = ev.Shards
			logf("autoscale: resharded %s -> %d replicas", ev.Region, ev.Shards)
		}
		skew, pause := ctl.Vetoes()
		logf("autoscale: reshards=%d grew=%d shrank=%d skew-vetoes=%d pause-vetoes=%d",
			res.Reshards, grew, shrank, skew, pause)
		if as.MaxReshards > 0 && res.Reshards > as.MaxReshards {
			res.Violations = append(res.Violations, fmt.Errorf(
				"autoscale: %d reshards exceed the budget of %d (flapping)", res.Reshards, as.MaxReshards))
		}
		if as.RequireGrow && grew == 0 {
			res.Violations = append(res.Violations, fmt.Errorf(
				"autoscale: the ramp never grew the region (%d replicas throughout)", cur))
		}
		if as.RequireShrink && shrank == 0 {
			res.Violations = append(res.Violations, fmt.Errorf(
				"autoscale: the decay never shrank the region (ended at %d replicas)", cur))
		}
	}
	logf("sent=%d observed=%d dropped=%d seconds=%d", res.Sent, res.Observed, res.Dropped, len(res.Series))
	for _, a := range sc.SLOs {
		logf("slo PASS? %s", a)
	}
	for _, v := range res.Violations {
		logf("slo FAIL: %v", v)
	}
	if res.Err != nil {
		logf("run error: %v", res.Err)
	}
	return res
}

// drive is the open-loop load generator: it walks the shape's schedule,
// coalesces elements that are due together into batches, and stamps each
// element with its scheduled emission time on the ingest clock.
func drive(ext *hmts.ExternalSource, sc Scenario, start int64, stop <-chan struct{}) uint64 {
	gen := makeGen(sc)
	durNS := sc.Duration.Nanoseconds()
	const maxBatch = 512
	buf := make([]hmts.Element, 0, maxBatch)
	var sent uint64
	var sched int64 // scheduled offset of the next element
	i := 0
	flush := func() {
		if len(buf) > 0 {
			sent += uint64(ext.PushBatch(buf))
			buf = buf[:0]
		}
	}
	for sched < durNS {
		select {
		case <-stop:
			flush()
			return sent
		default:
		}
		hz := sc.Shape.HzAt(sched)
		if hz <= 0 {
			hz = 1
		}
		sched += int64(1e9 / hz)
		e := gen(i)
		e.TS = start + sched
		i++
		// An element is pushed only at or after its scheduled time, so a
		// sink can never read a negative latency; due elements coalesce
		// into one batch push.
		if now := ingest.Now() - start; sched > now {
			flush()
			time.Sleep(time.Duration(sched - now))
		}
		buf = append(buf, e)
		if len(buf) >= maxBatch {
			flush()
		}
	}
	flush()
	return sent
}

// makeGen builds the element generator: zipf-keyed when ZipfS > 1,
// uniform otherwise.
func makeGen(sc Scenario) workload.Gen {
	keys := sc.Keys
	if keys < 1 {
		keys = 1024
	}
	if sc.ZipfS > 1 {
		return workload.ZipfKeys(keys, sc.ZipfS, sc.Seed)
	}
	return workload.UniformKeys(0, int64(keys-1), sc.Seed)
}

// runFaults schedules the injection timeline on its own goroutine and
// returns a channel closed once every fault has fired and released.
func runFaults(eng *hmts.Engine, sc Scenario, cost *op.CostSim, sink *monitorSink, mon *slo.Monitor, start int64, logf func(string, ...any)) <-chan struct{} {
	type step struct {
		at    time.Duration
		apply func()
	}
	base := cost.CostNS()
	var steps []step
	for _, f := range sc.Faults {
		f := f
		switch f.Kind {
		case FaultStall:
			steps = append(steps, step{f.At, func() {
				mon.Event("stall+")
				sink.stallNS.Store(f.StallNS)
			}})
			steps = append(steps, step{f.Until, func() {
				mon.Event("stall-")
				sink.stallNS.Store(0)
			}})
		case FaultCostSpike:
			steps = append(steps, step{f.At, func() {
				mon.Event("spike+")
				cost.SetCost(f.CostNS)
			}})
			steps = append(steps, step{f.Until, func() {
				mon.Event("spike-")
				cost.SetCost(base)
			}})
		case FaultSwitchMode:
			steps = append(steps, step{f.At, func() {
				mon.Event("switch:" + f.Mode.String())
				if err := eng.SwitchMode(f.Mode, f.Strategy); err != nil {
					logf("fault switch-mode: %v", err)
				}
			}})
		case FaultRebalance:
			steps = append(steps, step{f.At, func() {
				mon.Event("rebalance")
				if err := eng.Rebalance(); err != nil {
					logf("fault rebalance: %v", err)
				}
			}})
		case FaultReshard:
			steps = append(steps, step{f.At, func() {
				mon.Event(fmt.Sprintf("reshard:%d", f.Shards))
				if err := eng.Reshard("agg", f.Shards); err != nil {
					logf("fault reshard: %v", err)
				}
			}})
		case FaultShed:
			steps = append(steps, step{f.At, func() {
				mon.Event("shed+")
				eng.Shed(true)
			}})
			steps = append(steps, step{f.Until, func() {
				mon.Event("shed-")
				eng.Shed(false)
			}})
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Fire in timeline order; the list is small, sort by insertion.
		for {
			best := -1
			for i, s := range steps {
				if s.apply == nil {
					continue
				}
				if best < 0 || s.at < steps[best].at {
					best = i
				}
			}
			if best < 0 {
				return
			}
			s := steps[best]
			steps[best].apply = nil
			if wait := s.at.Nanoseconds() - (ingest.Now() - start); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			s.apply()
		}
	}()
	return done
}

// runChurn schedules the query-churn timeline on its own goroutine: every
// Stagger it registers one more standing query against the ingress stream
// (shared prefix, private threshold suffix) and, once MaxAlive are up,
// drops the oldest. Returns a channel closed when the churn is over and a
// pointer to its first error, valid to read after the channel closes.
func runChurn(eng *hmts.Engine, src *hmts.Stream, cs *ChurnSpec, mon *slo.Monitor, start int64, stop <-chan struct{}, logf func(string, ...any)) (<-chan struct{}, *error) {
	done := make(chan struct{})
	errp := new(error)
	if cs == nil || cs.Queries <= 0 {
		close(done)
		return done, errp
	}
	go func() {
		defer close(done)
		stagger := cs.Stagger
		if stagger <= 0 {
			stagger = 100 * time.Millisecond
		}
		mon.Event("churn+")
		var alive []string
		added, dropped := 0, 0
		for i := 0; i < cs.Queries; i++ {
			at := cs.Start + time.Duration(i)*stagger
			if wait := at.Nanoseconds() - (ingest.Now() - start); wait > 0 {
				select {
				case <-stop:
				case <-time.After(time.Duration(wait)):
				}
			}
			select {
			case <-stop:
				// The load deadline passed: a query added now would only
				// ever see the drain, so no more registrations.
				i = cs.Queries
				continue
			default:
			}
			name := fmt.Sprintf("churn%d", i)
			thr := float64(i % 13)
			if err := eng.AddQuery(name, op.NewNull(1), func() (*hmts.Stream, error) {
				// The prefix is byte-for-byte the same plan in every churn
				// query, so the subsumption rewriter instantiates it once;
				// the threshold filter diverges per query and is pruned
				// with the query on drop.
				return src.
					Where("churn-hot", func(e hmts.Element) bool { return e.Key%2 == 0 }).
					Where(fmt.Sprintf("churn-thr%d", i), func(e hmts.Element) bool { return e.Val >= thr }), nil
			}); err != nil {
				*errp = fmt.Errorf("add %s: %w", name, err)
				return
			}
			added++
			alive = append(alive, name)
			if cs.MaxAlive > 0 && len(alive) > cs.MaxAlive {
				oldest := alive[0]
				alive = alive[1:]
				if err := eng.DropQuery(oldest); err != nil {
					*errp = fmt.Errorf("drop %s: %w", oldest, err)
					return
				}
				dropped++
			}
		}
		mon.Event("churn-")
		logf("churn: added=%d dropped=%d standing=%d", added, dropped, len(alive))
	}()
	return done, errp
}

// waitWithin waits for ch, calling onTick once per second meanwhile, and
// reports whether ch closed before the timeout.
func waitWithin(ch <-chan struct{}, timeout time.Duration, onTick func()) bool {
	deadline := time.After(timeout)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ch:
			return true
		case <-tick.C:
			onTick()
		case <-deadline:
			return false
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
