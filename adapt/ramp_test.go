package adapt

import (
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/workload"
)

// metricsAtRate synthesizes the snapshot a one-operator deployment would
// report under an input rate of hz elements/second: interarrival d(v) =
// 1e9/hz ns, so utilization = costNS * hz / 1e9.
func metricsAtRate(costNS, hz float64) hmts.Metrics {
	return hmts.Metrics{
		Executors: 1,
		Ops:       []hmts.OpMetrics{{Name: "op", CostNS: costNS, InterarrivalNS: 1e9 / hz, In: 1000}},
	}
}

// TestShedOnOverloadRampTrace drives the shed decision with the
// utilization trajectory of a ramp-and-decay workload — the scenario the
// hysteresis exists for. A 100µs operator saturates at 10k elements/s;
// the trace ramps 2k→20k, holds, and decays back. The planner must engage
// exactly once (shortly after crossing capacity, not at first wobble),
// hold through the whole overloaded plateau including the 8k–10k
// hysteresis band on the way down, and release exactly once after the
// decay.
func TestShedOnOverloadRampTrace(t *testing.T) {
	const costNS = 100_000 // capacity: 10_000 elements/s
	shape := workload.RampDecayShape{
		FloorHz: 2_000,
		PeakHz:  20_000,
		RampNS:  int64(12 * time.Second),
		HoldNS:  int64(8 * time.Second),
		DecayNS: int64(12 * time.Second),
	}
	s := newShedSim()

	type step struct {
		tick   int
		action Action
		util   float64
	}
	var actions []step
	for tick := 0; tick < 40; tick++ {
		hz := shape.HzAt(int64(tick) * int64(time.Second))
		if a := s.step(metricsAtRate(costNS, hz)); a != None {
			actions = append(actions, step{tick, a, costNS * hz / 1e9})
		}
	}
	if len(actions) != 2 {
		t.Fatalf("want exactly one engage and one release, got %+v", actions)
	}
	on, off := actions[0], actions[1]
	if on.action != ShedOn || off.action != ShedOff {
		t.Fatalf("want ShedOn then ShedOff, got %+v", actions)
	}
	// The rate crosses capacity at tick 6 (2000 + 18000*6/12 = 11000);
	// with persist 3 the engage lands at tick 8. Allow a tick of slack for
	// the shape's integer arithmetic, but it must not wait for the peak.
	if on.tick < 7 || on.tick > 9 {
		t.Errorf("engage at tick %d (util %.2f), want 7..9", on.tick, on.util)
	}
	if on.util <= 1 {
		t.Errorf("engaged below capacity: util %.2f", on.util)
	}
	// Decay runs ticks 20..32 from 20k down to 2k; the release threshold
	// (0.8 => 8k elements/s) is crossed at tick 28, so persist 3 releases
	// at tick 30 — after the hysteresis band, never inside it.
	if off.tick < 29 || off.tick > 32 {
		t.Errorf("release at tick %d (util %.2f), want 29..32", off.tick, off.util)
	}
	if off.util >= 0.8 {
		t.Errorf("released inside the hysteresis band: util %.2f", off.util)
	}
	if s.on {
		t.Error("still shedding after the trace")
	}
}

// TestShedOnOverloadHoverNoFlap: a rate hovering between release and
// engage after an overload must keep the override engaged indefinitely —
// the flap the hysteresis is designed out of.
func TestShedOnOverloadHoverNoFlap(t *testing.T) {
	const costNS = 100_000
	s := newShedSim()
	for i := 0; i < persist; i++ {
		s.step(metricsAtRate(costNS, 15_000))
	}
	if !s.on {
		t.Fatal("setup: overload did not engage")
	}
	// 50 ticks oscillating across the band's interior: 8.5k and 9.5k both
	// sit between release (8k) and engage (10k).
	for i := 0; i < 50; i++ {
		hz := 8_500.0
		if i%2 == 1 {
			hz = 9_500.0
		}
		if a := s.step(metricsAtRate(costNS, hz)); a != None {
			t.Fatalf("tick %d: action %v inside the hysteresis band", i, a)
		}
	}
	if !s.on {
		t.Fatal("hovering load released the override")
	}
	// A dip below release shorter than persist must not release.
	s.step(metricsAtRate(costNS, 5_000))
	s.step(metricsAtRate(costNS, 5_000))
	if a := s.step(metricsAtRate(costNS, 9_000)); a != None || !s.on {
		t.Fatal("a short dip released the override")
	}
}

// TestShedOnOverloadDefaults: the planner engages at utilization 1 after
// persist (3) observations and ignores operators under 100 samples.
func TestShedOnOverloadDefaults(t *testing.T) {
	s := newShedSim()
	few := hmts.Metrics{
		Executors: 1,
		Ops:       []hmts.OpMetrics{{Name: "op", CostNS: 5e6, InterarrivalNS: 1e3, In: 99}},
	}
	for i := 0; i < 10; i++ {
		if a := s.step(few); a != None {
			t.Fatalf("under-sampled overload engaged: %v", a)
		}
	}
	if a := s.step(metricsAtRate(100_000, 10_000)); a != None {
		t.Fatal("a load of exactly 1 is not overload")
	}
	hot := metricsAtRate(100_000, 15_000) // util 1.5, In 1000
	if a1, a2 := s.step(hot), s.step(hot); a1 != None || a2 != None {
		t.Fatal("persist must be 3")
	}
	if a := s.step(hot); a != ShedOn {
		t.Fatal("third consecutive overload must engage")
	}
}

// TestUtilizationIgnoresBrokenMeasurements: zero or negative cost and
// interarrival figures (an operator that has not run, or a clock hiccup)
// contribute nothing, and a snapshot with no live executors still divides
// sanely.
func TestUtilizationIgnoresBrokenMeasurements(t *testing.T) {
	m := hmts.Metrics{
		Executors: 0,
		Ops: []hmts.OpMetrics{
			{Name: "a", CostNS: 0, InterarrivalNS: 1000, In: 1000},
			{Name: "b", CostNS: -5, InterarrivalNS: 1000, In: 1000},
			{Name: "c", CostNS: 500, InterarrivalNS: 0, In: 1000},
			{Name: "d", CostNS: 500, InterarrivalNS: -1, In: 1000},
			{Name: "e", CostNS: 500, InterarrivalNS: 1000, In: 1000}, // the only valid one
		},
	}
	if u := utilization(loads(m.Ops), m.Executors); u != 0.5 {
		t.Fatalf("utilization %v, want 0.5 from the single valid op", u)
	}
	// Nor do they count as drift or as a stalling operator.
	m.Mode = hmts.ModeGTS
	for i := range m.Ops {
		m.Ops[i].PlannedCostNS = 500
		m.Ops[i].CostNS = min(m.Ops[i].CostNS, 0)
	}
	p := New(nil, Config{Rebalance: true, Switch: true})
	if prs := p.plan(m); len(prs) != 0 {
		t.Fatalf("broken measurements proposed %+v", prs)
	}
}
