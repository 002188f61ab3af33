package adapt

import (
	"strings"
	"sync"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/simtime"
)

// overloadedExtEngine returns a finished engine whose measured statistics
// show ~2x overload (slow map fed at twice its capacity in event time),
// plus the external source handle for observing the shed override.
func overloadedExtEngine(t *testing.T) (*hmts.Engine, *hmts.ExternalSource) {
	t.Helper()
	const (
		n      = 2000
		costNS = 20_000
		gapNS  = 10_000
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
		ext.Push(hmts.Element{TS: hmts.Time((i + 1) * gapNS), Key: int64(i)})
	}
	ext.Close()
	eng.Wait()
	sink.Wait()
	return eng, ext
}

// charge executes one scripted ShedOff through c, starting its cooldown,
// and restores c's planner.
func charge(t *testing.T, c *Controller) {
	t.Helper()
	plan := c.propose
	script(c, ShedOff)
	if got := c.Step(); got != ShedOff {
		t.Fatalf("charging step = %v, want the scripted ShedOff", got)
	}
	c.propose = plan
}

// lastEvent returns c's newest event.
func lastEvent(t *testing.T, c *Controller) Event {
	t.Helper()
	evs := c.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	return evs[len(evs)-1]
}

// TestShedEngagedMatchesEngineAcrossCooldownDrop: a ShedOn that the
// cooldown gate drops leaves the sources unshed, and once the cooldown
// ends the standing overload proposes it again and it executes. The
// planner reads whether sources shed from the snapshot, so it cannot
// believe in an engagement the gate dropped.
func TestShedEngagedMatchesEngineAcrossCooldownDrop(t *testing.T) {
	eng, ext := overloadedExtEngine(t)
	const cooldown = 300 * time.Millisecond
	c := New(eng, Config{Period: time.Hour, Cooldown: cooldown, Shed: true})

	// The persist window runs cooled.
	charge(t, c)
	for i := 1; i < persist; i++ {
		if got := c.Step(); got != None {
			t.Fatalf("observation %d = %v", i, got)
		}
	}
	// The streak fills and ShedOn is proposed, which the gate drops.
	if got := c.Step(); got != None {
		t.Fatalf("cooled step = %v, want None", got)
	}
	if ev := lastEvent(t, c); !ev.Dropped || ev.Action != ShedOn || ev.Trigger != "overload" {
		t.Fatalf("cooldown drop not recorded: %+v", ev)
	}
	if ext.Shedding() || eng.Metrics().Ingest[0].Shedding {
		t.Fatal("a dropped ShedOn engaged shedding")
	}

	// Past the cooldown the still-standing overload re-proposes ShedOn
	// (the streak saturates instead of resetting) and it executes.
	time.Sleep(cooldown + 50*time.Millisecond)
	if got := c.Step(); got != ShedOn {
		t.Fatalf("step past the cooldown = %v, want ShedOn", got)
	}
	if !ext.Shedding() || !eng.Metrics().Ingest[0].Shedding {
		t.Fatal("executed ShedOn did not engage shedding")
	}
	// The engine now sheds, so the planner does not propose it again.
	time.Sleep(cooldown + 50*time.Millisecond)
	if got := c.Step(); got != None {
		t.Fatalf("step while shedding = %v, want None", got)
	}
}

// openEngine returns a running engine whose external source stays open
// until the returned close function runs. Its one operator costs about
// 20µs per element but is hinted at 10ns, and it has processed enough
// elements for a reliable measurement.
func openEngine(t *testing.T) (*hmts.Engine, func()) {
	t.Helper()
	ext := hmts.External("ext", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 256})
	eng := hmts.New()
	sink := eng.Source("ext", ext.Spec()).
		Map("actually-heavy", func(e hmts.Element) hmts.Element {
			simtime.Busy(20_000)
			return e
		}).
		Hint(10, 1).
		CountSink("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})
	const n = 2 * minSamples
	for i := 0; i < n; i++ {
		ext.Push(hmts.Element{TS: hmts.Time((i + 1) * 100_000), Key: int64(i)})
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Metrics().Ops[0].Out < n {
		if time.Now().After(deadline) {
			t.Fatalf("setup: operator never processed its input: %+v", eng.Metrics().Ops)
		}
		time.Sleep(time.Millisecond)
	}
	return eng, func() {
		ext.Close()
		eng.Wait()
		sink.Wait()
		if sink.Count() != n {
			t.Fatalf("lost elements: %d of %d", sink.Count(), n)
		}
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDroppedDriftRebalanceIsProposedAgain: a cost-drift Rebalance that
// the cooldown gate drops is proposed again once the cooldown ends, and
// executes. The drift is measured against the cost the running plan was
// built with, so it stands until a Rebalance actually ran.
func TestDroppedDriftRebalanceIsProposedAgain(t *testing.T) {
	eng, done := openEngine(t)
	defer done()
	const cooldown = 200 * time.Millisecond
	c := New(eng, Config{Period: time.Hour, Cooldown: cooldown, Rebalance: true})
	script(c, ShedOff) // charge the cooldown before the planner runs
	if got := c.Step(); got != ShedOff {
		t.Fatalf("charging step = %v", got)
	}
	c.propose = c.plan

	for i := 1; i < persist; i++ {
		if got := c.Step(); got != None || len(c.Events()) != 1 {
			t.Fatalf("observation %d = %v, events %+v", i, got, c.Events())
		}
	}
	if got := c.Step(); got != None {
		t.Fatalf("cooled step = %v, want None", got)
	}
	if ev := lastEvent(t, c); !ev.Dropped || ev.Action != Rebalance || ev.Trigger != "cost-drift" {
		t.Fatalf("cooldown drop not recorded: %+v", ev)
	}
	time.Sleep(cooldown + 50*time.Millisecond)
	if got := c.Step(); got != Rebalance {
		t.Fatalf("step past the cooldown = %v, want the dropped Rebalance again", got)
	}
	if ev := lastEvent(t, c); ev.Dropped || ev.Err != nil {
		t.Fatalf("rebalance did not execute: %+v", ev)
	}
	o := eng.Metrics().Ops[0]
	if r := o.CostNS / o.PlannedCostNS; r > driftFactor || r < 1/driftFactor {
		t.Fatalf("plan still stale: planned %v, measured %v", o.PlannedCostNS, o.CostNS)
	}
}

// TestDroppedQueueGrowthIsProposedAgain: a queue-growth Rebalance that
// the cooldown gate drops is proposed again on the next step while the
// backlog keeps growing, not after a whole new persist window.
func TestDroppedQueueGrowthIsProposedAgain(t *testing.T) {
	eng, done := openEngine(t)
	defer done()
	const cooldown = 200 * time.Millisecond
	c := New(eng, Config{Period: time.Hour, Cooldown: cooldown, Rebalance: true})
	charge(t, c)
	l := 20_000
	c.propose = func(hmts.Metrics) []proposal {
		l += 1_000
		return c.plan(queues(l))
	}
	for i := 0; i < persist; i++ { // the baseline, then growth short of persist
		if got := c.Step(); got != None || len(c.Events()) != 1 {
			t.Fatalf("observation %d = %v, events %+v", i+1, got, c.Events())
		}
	}
	if got := c.Step(); got != None {
		t.Fatalf("cooled step = %v, want None", got)
	}
	if ev := lastEvent(t, c); !ev.Dropped || ev.Action != Rebalance || ev.Trigger != "queue-growth" {
		t.Fatalf("cooldown drop not recorded: %+v", ev)
	}
	time.Sleep(cooldown + 50*time.Millisecond)
	if got := c.Step(); got != Rebalance {
		t.Fatalf("step past the cooldown = %v, want the dropped Rebalance again", got)
	}
	if ev := lastEvent(t, c); ev.Dropped || ev.Err != nil {
		t.Fatalf("rebalance did not execute: %+v", ev)
	}
	// The executed Rebalance reset the streak: further growth needs a
	// fresh persist window.
	if prs := c.plan(queues(l + 1_000)); len(prs) != 0 {
		t.Fatalf("growth right after an executed rebalance proposed %+v", prs)
	}
}

// TestCooldownDoesNotSilenceLaterPolicies is the regression test for the
// starvation bug: a controller that returned as soon as one proposal hit
// the cooldown gate let a chatty early decision starve every later one.
// Every step must consult the planner, execute all of its proposals or
// record all of them as dropped.
func TestCooldownDoesNotSilenceLaterPolicies(t *testing.T) {
	eng, sink := runningEngine(t, 200_000)
	c := New(eng, Config{Period: time.Hour, Cooldown: time.Hour})
	calls := 0
	c.propose = func(hmts.Metrics) []proposal {
		calls++
		return []proposal{{act: Rebalance, by: "chatty"}, {act: ShedOff, by: "late"}}
	}

	// Step 1 (uncooled): both actions execute.
	if got := c.Step(); got != Rebalance {
		t.Fatalf("step 1 = %v", got)
	}
	// Step 2 (cooling): both proposals drop, but the planner still ran.
	if got := c.Step(); got != None {
		t.Fatalf("step 2 = %v, want None under cooldown", got)
	}
	if calls != 2 {
		t.Fatalf("planner consulted %d times, want 2 — cooldown starved it", calls)
	}
	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("events %+v", evs)
	}
	for i, ev := range evs {
		if ev.Dropped != (i >= 2) || ev.Err != nil {
			t.Fatalf("event %d: %+v", i, ev)
		}
	}
	if evs[2].Action != Rebalance || evs[3].Action != ShedOff || evs[3].Trigger != "late" {
		t.Fatalf("dropped proposals not recorded: %+v", evs)
	}
	eng.Wait()
	sink.Wait()
}

// TestQueueGrowthForgetsRemovedQueues is the regression test for the
// state-leak bug: a queue removed from the deployment and later re-created
// under the same name must start with a clean growth streak, not inherit
// the dead queue's.
func TestQueueGrowthForgetsRemovedQueues(t *testing.T) {
	p := New(nil, Config{Rebalance: true})
	p.plan(queues(20_000)) // baseline
	p.plan(queues(21_000)) // streak 1
	p.plan(queues(22_000)) // streak 2
	// The queue disappears for one snapshot (resharded away)...
	p.plan(hmts.Metrics{})
	// ...and a new queue reuses the name. This observation can only be a
	// baseline; with a stale streak and length it would be the triggering
	// third growth.
	if a := only(t, p.plan(queues(23_000))); a != None {
		t.Fatalf("recreated queue inherited the dead queue's streak: %v", a)
	}
	// From the clean slate the full persist window is required again.
	if a := only(t, p.plan(queues(24_000))); a != None {
		t.Fatal("streak 1 must not trigger")
	}
	if a := only(t, p.plan(queues(25_000))); a != None {
		t.Fatal("streak 2 must not trigger")
	}
	if a := only(t, p.plan(queues(26_000))); a != Rebalance {
		t.Fatal("persistent growth on the new queue must trigger")
	}
}

// TestCostDriftForgetsRemovedOps: an operator removed by a reshard and
// re-created under the same name (shard replicas do exactly this) starts
// with a clean drift streak, and is judged against the cost its own plan
// was built with, never against a dead operator's.
func TestCostDriftForgetsRemovedOps(t *testing.T) {
	p := New(nil, Config{Rebalance: true})
	op := func(cost, plannedCost float64) hmts.Metrics {
		return hmts.Metrics{Ops: []hmts.OpMetrics{{Name: "agg#1", CostNS: cost, PlannedCostNS: plannedCost, In: 1000}}}
	}
	for i := 1; i < persist; i++ { // a drift streak one short of firing
		if a := only(t, p.plan(op(5000, 1000))); a != None {
			t.Fatalf("observation %d: %v", i, a)
		}
	}
	// Replica removed by a downscale...
	p.plan(hmts.Metrics{})
	// ...then a new replica reuses the name. Its drift needs a full
	// persist window; the dead replica's streak would fire at once.
	if a := only(t, persisted(t, p, op(5000, 1000))); a != Rebalance {
		t.Fatalf("drift against the new plan must trigger: %v", a)
	}
	// A replica with a 10x different cost, planned with that cost, does
	// not drift.
	if a := only(t, persisted(t, p, op(1000, 1000))); a != None {
		t.Fatalf("recreated op judged against the dead op: %v", a)
	}
}

// TestQueueGrowthPrunesAcrossLiveReshard drives the pruning through the
// real thing: a live Engine.Reshard removes a replica and its queues, and
// the planner's memory must shrink with the deployment.
func TestQueueGrowthPrunesAcrossLiveReshard(t *testing.T) {
	ext := hmts.External("ext", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 256})
	eng := hmts.New()
	sink := eng.Source("ext", ext.Spec()).
		Aggregate("agg", hmts.Count, time.Hour, func(e hmts.Element) int64 { return e.Key }).
		Shard(2).
		CountSink("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})
	for i := 0; i < 100; i++ {
		ext.Push(hmts.Element{TS: hmts.Time((i + 1) * 1e6), Key: int64(i % 8)})
	}

	p := New(eng, Config{Rebalance: true})
	p.plan(eng.Metrics())
	had := false
	for name := range p.lastLen {
		if strings.Contains(name, "agg#1") {
			had = true
		}
	}
	if !had {
		t.Fatalf("setup: replica-1 queues missing from the snapshot: %v", p.lastLen)
	}

	if err := eng.Reshard("agg", 1); err != nil {
		t.Fatal(err)
	}
	p.plan(eng.Metrics())
	for name := range p.lastLen {
		if strings.Contains(name, "agg#1") {
			t.Fatalf("stale queue state survived the live reshard: %q", name)
		}
	}

	ext.Close()
	eng.Wait()
	sink.Wait()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestEventsConcurrentWithLoop exercises the reader-facing surfaces
// (-race catches unsynchronized state): Events() and Vetoes() are read
// from other goroutines while the control loop steps.
func TestEventsConcurrentWithLoop(t *testing.T) {
	eng, sink := runningEngine(t, 300_000)
	c := New(eng, Config{Period: time.Millisecond, Rebalance: true, Shed: true, Switch: true, Reshard: true})
	c.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = c.Events()
					_, _ = c.Vetoes()
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	c.Stop()
	eng.Wait()
	sink.Wait()
}
