package adapt

import (
	"slices"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/simtime"
)

// script replaces the controller's planner with one that proposes the
// given actions, one per step.
func script(c *Controller, acts ...Action) {
	i := 0
	c.propose = func(hmts.Metrics) []proposal {
		if i >= len(acts) {
			return nil
		}
		a := acts[i]
		i++
		return []proposal{{act: a, by: "scripted"}}
	}
}

// only returns the single action among prs, or None.
func only(t *testing.T, prs []proposal) Action {
	t.Helper()
	switch len(prs) {
	case 0:
		return None
	case 1:
		return prs[0].act
	}
	t.Fatalf("want at most one proposal, got %+v", prs)
	return None
}

// persisted plans m on c persist times: the first persist-1
// observations must propose nothing, and it returns the proposals of the
// last.
func persisted(t *testing.T, c *Controller, m hmts.Metrics) []proposal {
	t.Helper()
	for i := 1; i < persist; i++ {
		if prs := c.plan(m); len(prs) != 0 {
			t.Fatalf("observation %d of %d proposed %+v", i, persist, prs)
		}
	}
	return c.plan(m)
}

// runningEngine returns an engine processing a long stamped stream.
func runningEngine(t *testing.T, n int) (*hmts.Engine, *hmts.Counter) {
	t.Helper()
	eng := hmts.New()
	src := eng.Source("src", hmts.GenerateStamped(n, 1e6, hmts.SeqKeys()))
	sink := src.
		Where("w", func(e hmts.Element) bool { return e.Key%2 == 0 }).
		CountSink("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeGTS})
	return eng, sink
}

func TestControllerAppliesRebalance(t *testing.T) {
	eng, sink := runningEngine(t, 500_000)
	c := New(eng, Config{Period: time.Hour})
	script(c, Rebalance)
	if got := c.Step(); got != Rebalance {
		t.Fatalf("Step = %v", got)
	}
	evs := c.Events()
	if len(evs) != 1 || evs[0].Action != Rebalance || evs[0].Err != nil || evs[0].Trigger != "scripted" {
		t.Fatalf("events %+v", evs)
	}
	eng.Wait()
	sink.Wait()
	if sink.Count() != 250_000 {
		t.Fatalf("results lost across adaptive rebalance: %d", sink.Count())
	}
}

func TestControllerCooldown(t *testing.T) {
	eng, sink := runningEngine(t, 200_000)
	c := New(eng, Config{Period: time.Hour, Cooldown: time.Hour})
	script(c, Rebalance, Rebalance, Rebalance)
	if c.Step() != Rebalance {
		t.Fatal("first action should pass")
	}
	if c.Step() != None {
		t.Fatal("second action should be suppressed by cooldown")
	}
	eng.Wait()
	sink.Wait()
}

func TestControllerLoopStartStop(t *testing.T) {
	eng, sink := runningEngine(t, 300_000)
	c := New(eng, Config{Period: time.Millisecond, Rebalance: true, Shed: true, Switch: true, Reshard: true})
	c.Start()
	eng.Wait()
	sink.Wait()
	c.Stop()
	c.Stop() // idempotent
}

// queues is a snapshot holding one queue "q" of length l.
func queues(l int) hmts.Metrics {
	return hmts.Metrics{Queues: []hmts.QueueMetrics{{Name: "q", Len: l}}}
}

func TestQueueGrowthPolicy(t *testing.T) {
	p := New(nil, Config{Rebalance: true})
	if a := only(t, p.plan(queues(20_000))); a != None { // first sight: baseline only
		t.Fatalf("no growth measurable on first observation: %v", a)
	}
	for i, l := range []int{21_000, 22_000} {
		if a := only(t, p.plan(queues(l))); a != None {
			t.Fatalf("growth %d of %d triggered: %v", i+1, persist, a)
		}
	}
	prs := p.plan(queues(23_000))
	if len(prs) != 1 || prs[0].act != Rebalance || prs[0].by != "queue-growth" {
		t.Fatalf("persistent growth should trigger: %+v", prs)
	}
	// Shrinking resets.
	for _, l := range []int{15_000, 16_000, 17_000} {
		if a := only(t, p.plan(queues(l))); a != None {
			t.Fatal("reset after shrink")
		}
	}
	// Below the floor growth never triggers.
	small := New(nil, Config{Rebalance: true})
	for l := 10; l < 100; l += 10 {
		if a := only(t, small.plan(queues(l))); a != None {
			t.Fatal("below-floor growth should not trigger")
		}
	}
}

// planned is a snapshot of one operator "f" measured at cost and planned
// with plannedCost.
func planned(cost, plannedCost float64) hmts.Metrics {
	return hmts.Metrics{Ops: []hmts.OpMetrics{{Name: "f", CostNS: cost, PlannedCostNS: plannedCost, In: 1000}}}
}

func TestCostDriftPolicy(t *testing.T) {
	p := New(nil, Config{Rebalance: true})
	if a := only(t, persisted(t, p, planned(350, 100))); a != None {
		t.Fatalf("drift within the factor triggered: %v", a)
	}
	if prs := persisted(t, p, planned(500, 100)); len(prs) != 1 || prs[0].by != "cost-drift" {
		t.Fatalf("5x drift persisting should trigger: %+v", prs)
	}
	// A Rebalance plans with the measured cost; the drift then clears.
	if a := only(t, persisted(t, p, planned(500, 500))); a != None {
		t.Fatalf("within factor of the new plan: %v", a)
	}
	if a := only(t, persisted(t, p, planned(100, 500))); a != Rebalance {
		t.Fatal("downward drift should trigger too")
	}
	// Too few samples, or no planned cost: ignored.
	few := hmts.Metrics{Ops: []hmts.OpMetrics{{Name: "f", CostNS: 1e5, PlannedCostNS: 100, In: 99}}}
	if a := only(t, persisted(t, p, few)); a != None {
		t.Fatal("unreliable measurements must be ignored")
	}
	if a := only(t, persisted(t, p, planned(1e5, 0))); a != None {
		t.Fatal("an operator planned without an estimate cannot drift")
	}
}

// End-to-end: a deliberately wrong plan (expensive op hinted cheap) gets
// fixed by the controller, changing the queue placement mid-run.
func TestAdaptiveRebalanceFixesStaleHints(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("src", hmts.GenerateStamped(400_000, 1e6, hmts.SeqKeys()))
	heavy := src.
		Map("actually-heavy", func(e hmts.Element) hmts.Element {
			// Busy-ish work the planner was not told about.
			s := 0.0
			for i := 0; i < 300; i++ {
				s += float64(i) * e.Val
			}
			e.Val = s
			return e
		}).
		Hint(10, 1) // lie: planner thinks it is nearly free
	sink := heavy.CountSink("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})

	ctl := New(eng, Config{Period: time.Hour, Rebalance: true})
	// The drift shows once the operator has a reliable measurement, and
	// fires once it persisted.
	rebalanced := false
	for i := 0; i < 200 && !rebalanced; i++ {
		rebalanced = ctl.Step() == Rebalance
		if !rebalanced {
			time.Sleep(time.Millisecond)
		}
	}
	if !rebalanced {
		t.Fatalf("no step rebalanced the mis-hinted plan: %+v", eng.Metrics().Ops)
	}
	// The measured cost is a smoothed wall-clock figure that a preempted
	// batch can spike for a snapshot; judge the plan against the median of
	// several snapshots.
	var planned float64
	var costs []float64
	for i := 0; i < 9; i++ {
		for _, o := range eng.Metrics().Ops {
			if o.Name == "actually-heavy" {
				planned = o.PlannedCostNS
				costs = append(costs, o.CostNS)
			}
		}
		time.Sleep(time.Millisecond)
	}
	slices.Sort(costs)
	measured := costs[len(costs)/2]
	evs := ctl.Events()
	last := evs[len(evs)-1]
	eng.Wait()
	sink.Wait()
	if last.Action != Rebalance || last.Err != nil || last.Trigger != "cost-drift" {
		t.Fatalf("rebalance event %+v", last)
	}
	if r := measured / planned; r > driftFactor || r < 1/driftFactor {
		t.Fatalf("plan still stale after the rebalance: planned %v, measured %v", planned, costs)
	}
	if sink.Count() != 400_000 {
		t.Fatalf("lost elements: %d", sink.Count())
	}
	if err := eng.Err(); err != nil {
		t.Fatalf("engine error: %v", err)
	}
}

// ops returns n reliably measured, unnamed-cost operators under mode.
func ops(mode hmts.Mode, n int, costNS float64, in uint64) hmts.Metrics {
	m := hmts.Metrics{Mode: mode}
	for i := 0; i < n; i++ {
		m.Ops = append(m.Ops, hmts.OpMetrics{Name: string(rune('a' + i)), CostNS: costNS, In: in})
	}
	return m
}

func TestArchitectureFitOTSWithManyOps(t *testing.T) {
	p := New(nil, Config{Switch: true})
	if prs := persisted(t, p, ops(hmts.ModeOTS, otsMaxOps, 100, 500)); len(prs) != 1 ||
		prs[0].act != SwitchHMTS || prs[0].by != "ots-width" {
		t.Fatalf("OTS with %d ops should switch to HMTS: %+v", otsMaxOps, prs)
	}
	// Once the engine runs HMTS, the snapshot's mode says so.
	if a := only(t, persisted(t, p, ops(hmts.ModeHMTS, otsMaxOps, 100, 500))); a != None {
		t.Fatal("already on HMTS: nothing to do")
	}
	if a := only(t, persisted(t, p, ops(hmts.ModeOTS, otsMaxOps-1, 100, 500))); a != None {
		t.Fatal("below the op threshold nothing should fire")
	}
}

func TestArchitectureFitGTSWithExpensiveOp(t *testing.T) {
	p := New(nil, Config{Switch: true})
	if a := only(t, persisted(t, p, ops(hmts.ModeGTS, 1, 2*gtsStallNS, 500))); a != SwitchHMTS {
		t.Fatal("GTS with an expensive op should switch")
	}
	if a := only(t, persisted(t, p, ops(hmts.ModeGTS, 1, 2*gtsStallNS, 5))); a != None {
		t.Fatal("unreliable measurements must not trigger")
	}
	if a := only(t, persisted(t, p, ops(hmts.ModeGTS, 3, gtsStallNS/2, 500))); a != None {
		t.Fatal("cheap operators do not stall GTS")
	}
	if a := only(t, persisted(t, p, ops(hmts.ModeHMTS, 1, 2*gtsStallNS, 500))); a != None {
		t.Fatal("already on HMTS: nothing to do")
	}
}

func TestControllerAppliesSwitchHMTS(t *testing.T) {
	eng, sink := runningEngine(t, 400_000)
	c := New(eng, Config{Period: time.Hour})
	script(c, SwitchHMTS)
	if got := c.Step(); got != SwitchHMTS {
		t.Fatalf("Step = %v", got)
	}
	eng.Wait()
	sink.Wait()
	if sink.Count() != 200_000 {
		t.Fatalf("lost results across live mode switch: %d", sink.Count())
	}
	if m := eng.Metrics(); m.Mode != hmts.ModeHMTS {
		t.Fatalf("mode %v after switch", m.Mode)
	}
	if ev := c.Events(); len(ev) != 1 || ev[0].Err != nil {
		t.Fatalf("events %+v", ev)
	}
}

func TestControllerStopWithoutStart(t *testing.T) {
	c := New(hmts.New(), Config{Period: time.Hour})
	done := make(chan struct{})
	go func() {
		c.Stop() // must not wait for a loop that never started
		c.Stop() // and stay idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung waiting for a loop that was never started")
	}
}

func TestControllerDoubleStart(t *testing.T) {
	eng, sink := runningEngine(t, 100_000)
	c := New(eng, Config{Period: time.Millisecond})
	c.Start()
	c.Start() // must not spawn a second loop over the same done channel
	eng.Wait()
	sink.Wait()
	c.Stop() // a duplicated loop would double-close done and panic here
}

func TestControllerCooldownNotChargedOnError(t *testing.T) {
	// The engine is not running, so Rebalance fails; Shed always succeeds.
	eng := hmts.New()
	c := New(eng, Config{Period: time.Hour, Cooldown: time.Hour})
	script(c, Rebalance, ShedOn, ShedOn)
	if got := c.Step(); got != Rebalance {
		t.Fatalf("step 1 = %v", got)
	}
	// The failed Rebalance must not have burned the cooldown: the next
	// action still goes through.
	if got := c.Step(); got != ShedOn {
		t.Fatalf("step 2 = %v, want ShedOn despite prior failed action", got)
	}
	// The successful action does charge it.
	if got := c.Step(); got != None {
		t.Fatalf("step 3 = %v, want None under cooldown", got)
	}
	evs := c.Events()
	if len(evs) != 3 {
		t.Fatalf("events %+v", evs)
	}
	if evs[0].Action != Rebalance || evs[0].Err == nil {
		t.Fatalf("failed action must still be recorded with its error: %+v", evs[0])
	}
	if evs[1].Action != ShedOn || evs[1].Err != nil || evs[1].Dropped {
		t.Fatalf("event 2: %+v", evs[1])
	}
	// The cooled-down third proposal is observable as a dropped event.
	if evs[2].Action != ShedOn || !evs[2].Dropped {
		t.Fatalf("event 3 should record the cooldown drop: %+v", evs[2])
	}
}

// TestFailedProposalWaitsFreshPersistWindow: an action that fails (here
// because the engine is not running) is not retried every period while
// its condition stands; its trigger waits a fresh persist window, so a
// failing deployment cannot flood the event log or take the engine lock
// each step.
func TestFailedProposalWaitsFreshPersistWindow(t *testing.T) {
	c := New(hmts.New(), Config{Period: time.Hour, Switch: true})
	c.propose = func(hmts.Metrics) []proposal { return c.plan(ops(hmts.ModeOTS, otsMaxOps, 100, 500)) }
	for round := 1; round <= 2; round++ {
		for i := 1; i < persist; i++ {
			if got := c.Step(); got != None {
				t.Fatalf("round %d, observation %d = %v", round, i, got)
			}
		}
		if got := c.Step(); got != SwitchHMTS {
			t.Fatalf("round %d: step = %v, want the SwitchHMTS attempt", round, got)
		}
		if evs := c.Events(); len(evs) != round || evs[round-1].Err == nil || evs[round-1].Trigger != "ots-width" {
			t.Fatalf("round %d: events %+v", round, evs)
		}
	}
}

// TestEventsKeepNewest: the event log is bounded, and the event past the
// bound evicts the oldest.
func TestEventsKeepNewest(t *testing.T) {
	c := New(nil, Config{})
	for i := 1; i <= maxEvents+1; i++ {
		c.record(Event{Shards: i})
	}
	evs := c.Events()
	if len(evs) != maxEvents {
		t.Fatalf("kept %d events, want %d", len(evs), maxEvents)
	}
	if evs[0].Shards != 2 || evs[maxEvents-1].Shards != maxEvents+1 {
		t.Fatalf("want events 2..%d, got %d..%d", maxEvents+1, evs[0].Shards, evs[maxEvents-1].Shards)
	}
}

func TestUtilization(t *testing.T) {
	op := func(c, d float64, in uint64) hmts.OpMetrics {
		return hmts.OpMetrics{CostNS: c, InterarrivalNS: d, In: in}
	}
	util := func(m hmts.Metrics) float64 { return utilization(loads(m.Ops), m.Executors) }
	if u := util(hmts.Metrics{}); u != 0 {
		t.Fatalf("empty metrics: %v", u)
	}
	// Unreliable measurements are ignored.
	m := hmts.Metrics{Ops: []hmts.OpMetrics{op(2000, 1000, minSamples-1)}, Executors: 1}
	if u := util(m); u != 0 {
		t.Fatalf("few samples must be ignored: %v", u)
	}
	// One op at 2x capacity.
	m = hmts.Metrics{Ops: []hmts.OpMetrics{op(2000, 1000, 500)}, Executors: 4}
	if u := util(m); u != 2 {
		t.Fatalf("busiest op sets the floor: %v", u)
	}
	// Many cheap ops on one executor: the sum matters.
	m = hmts.Metrics{Ops: []hmts.OpMetrics{op(600, 1000, 500), op(600, 1000, 500)}, Executors: 1}
	if u := util(m); u != 1.2 {
		t.Fatalf("aggregate over one executor: %v", u)
	}
	// Same ops spread over plenty of executors: busiest dominates.
	m.Executors = 4
	if u := util(m); u != 0.6 {
		t.Fatalf("spread over executors: %v", u)
	}
	// Operator names are not unique (ql names every key projection
	// "select key"): operators sharing a name each count, and their sum
	// still sheds.
	m = hmts.Metrics{Executors: 1, Ingest: []hmts.IngestMetrics{{Name: "ext"}}}
	for i := 0; i < 2; i++ {
		o := op(600, 1000, 500)
		o.Name = "select key"
		m.Ops = append(m.Ops, o)
	}
	if u := util(m); u != 1.2 {
		t.Fatalf("equal-named operators: %v, want 1.2", u)
	}
	if prs := persisted(t, New(nil, Config{Shed: true}), m); len(prs) != 1 || prs[0].act != ShedOn {
		t.Fatalf("equal-named operators overloading one executor must shed: %+v", prs)
	}
}

// shedSim plays the engine's side of the shed decision: it runs the
// planner over a snapshot carrying the sources' shedding state and
// applies the proposed action as an uncooled step would.
type shedSim struct {
	c  *Controller
	on bool
}

func newShedSim() *shedSim { return &shedSim{c: New(nil, Config{Shed: true})} }

func (s *shedSim) step(m hmts.Metrics) Action {
	m.Ingest = []hmts.IngestMetrics{{Name: "ext", Shedding: s.on}}
	a := None
	for _, pr := range s.c.plan(m) {
		a = pr.act
		s.on = a == ShedOn
		s.c.settle(pr)
	}
	return a
}

// loaded is a one-executor snapshot whose single operator runs at util.
func loaded(util float64) hmts.Metrics {
	return hmts.Metrics{
		Executors: 1,
		Ops:       []hmts.OpMetrics{{Name: "op", CostNS: util * 1000, InterarrivalNS: 1000, In: 500}},
	}
}

func TestShedOnOverloadPolicy(t *testing.T) {
	s := newShedSim()
	s.step(loaded(2))
	s.step(loaded(2))
	if a := s.step(loaded(0.3)); a != None {
		t.Fatal("dip must reset the persist counter")
	}
	s.step(loaded(2))
	s.step(loaded(2))
	if s.on {
		t.Fatal("two overloaded observations after a dip must not engage")
	}
	if a := s.step(loaded(2)); a != ShedOn || !s.on {
		t.Fatalf("persistent overload must engage: %v", a)
	}
	if a := s.step(loaded(2)); a != None {
		t.Fatal("already shedding: no repeat action")
	}
	// Hysteresis: between release and engage nothing changes.
	if a := s.step(loaded(0.9)); a != None {
		t.Fatal("above the release threshold shedding must hold")
	}
	s.step(loaded(0.3))
	s.step(loaded(0.3))
	s.step(loaded(0.9)) // resets the calm streak
	s.step(loaded(0.3))
	if a := s.step(loaded(0.3)); a != None {
		t.Fatal("two calm observations after a rise must not release")
	}
	if a := s.step(loaded(0.3)); a != ShedOff || s.on {
		t.Fatalf("persistent calm must release: %v", a)
	}
	// No external source: nothing to shed, whatever the load.
	bare := New(nil, Config{Shed: true})
	for i := 0; i < 5; i++ {
		if a := only(t, bare.plan(loaded(2))); a != None {
			t.Fatalf("shed proposed without an external source: %v", a)
		}
	}
}

// End-to-end: an External source feeding an operator that cannot keep pace
// with the producer's event rate drives measured utilization above 1, the
// planner fires ShedOn through the controller, and the source reports the
// emergency override.
func TestShedOnOverloadEndToEnd(t *testing.T) {
	const (
		n      = 2000
		costNS = 20_000 // per-element work
		gapNS  = 10_000 // event-time interarrival: 2x over capacity
	)
	ext := hmts.External("ext", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 256})
	eng := hmts.New()
	sink := eng.Source("ext", ext.Spec()).
		Map("slow", func(e hmts.Element) hmts.Element {
			simtime.Busy(costNS)
			return e
		}).
		CountSink("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeGTS})

	for i := 0; i < n; i++ {
		// Explicit event timestamps at twice the operator's capacity;
		// backpressure throttles delivery but not the measured load.
		ext.Push(hmts.Element{TS: hmts.Time((i + 1) * gapNS), Key: int64(i)})
	}
	ext.Close()
	eng.Wait()
	sink.Wait()
	if sink.Count() != n {
		t.Fatalf("Block policy must not lose elements: %d", sink.Count())
	}

	ctl := New(eng, Config{Period: time.Hour, Shed: true})
	for i := 1; i < persist; i++ {
		if a := ctl.Step(); a != None {
			t.Fatalf("observation %d: %v", i, a)
		}
	}
	if a := ctl.Step(); a != ShedOn {
		m := eng.Metrics()
		t.Fatalf("persistent overload should shed (util=%v): %+v",
			utilization(loads(m.Ops), m.Executors), m.Ops)
	}
	if !ext.Shedding() {
		t.Fatal("source should report the shed override")
	}
	st := ext.Stats()
	if !st.Shedding || st.Policy != "drop-newest" {
		t.Fatalf("stats should surface the override: %+v", st)
	}
	// Releasing restores the configured policy.
	eng.Shed(false)
	if ext.Shedding() || ext.Stats().Policy != "block" {
		t.Fatalf("release should restore the configured policy: %+v", ext.Stats())
	}
}
