package soak

import (
	"sort"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/slo"
	"github.com/dsms/hmts/internal/workload"
)

// Scenarios returns the canonical scenario catalog, keyed by name.
//
// The SLO bounds are deliberately generous: they are deadlock/starvation
// tripwires that must hold on a loaded CI container, not latency
// benchmarks — BENCH_*.json and cmd/benchdiff own the tight numbers.
func Scenarios() map[string]Scenario {
	s := map[string]Scenario{}
	add := func(sc Scenario) { s[sc.Name] = sc }

	// short: the CI gate (`make soakshort`). Nine seconds that touch every
	// fault class: a 5x burst, a slow consumer stalling the sink, a live
	// HMTS switch under load, and a shed engage/release — with SLOs that
	// catch a deadlock, unbounded backlog, or a starved path.
	add(Scenario{
		Name:        "short",
		Description: "CI gate: burst + slow-consumer stall + live mode switch + shed, ~9s",
		Duration:    9 * time.Second,
		Shape: workload.BurstShape{
			BaseHz:   3_000,
			BurstHz:  15_000,
			PeriodNS: (4 * time.Second).Nanoseconds(),
			BurstNS:  time.Second.Nanoseconds(),
			OffsetNS: time.Second.Nanoseconds(),
		},
		Keys:       4096,
		ZipfS:      1.2,
		Seed:       42,
		Mode:       hmts.ModeGTS,
		QueueBound: 4096,
		Policy:     hmts.Block,
		Buffer:     8192,
		OpCostNS:   10_000, // 10µs: ~15% of a core at base rate
		Window:     500 * time.Millisecond,
		Faults: []Fault{
			{Kind: FaultStall, At: 3 * time.Second, Until: 4 * time.Second, StallNS: int64(2 * time.Millisecond)},
			{Kind: FaultSwitchMode, At: 5500 * time.Millisecond, Mode: hmts.ModeHMTS},
			{Kind: FaultShed, At: 6500 * time.Millisecond, Until: 7500 * time.Millisecond},
		},
		SLOs: []slo.Assertion{
			slo.LatencyBelow{Q: slo.P50, Bound: 2 * time.Second, Frac: 0.7},
			slo.LatencyBelow{Q: slo.P99, Bound: 5 * time.Second, Frac: 0.7},
			slo.BoundedBacklog{MaxIngress: 8192, MaxQueue: 3 * 4096},
			slo.MinThroughput{PerSec: 200, Frac: 0.6},
			slo.MaxDropFrac{Frac: 0.5},
		},
	})

	// burst: sustained periodic 10x bursts against a drop-oldest ingress —
	// the freshest-data-wins overload posture. No faults: the question is
	// whether the scheduler rides the bursts with bounded backlog.
	add(Scenario{
		Name:        "burst",
		Description: "open-loop 10x periodic bursts, drop-oldest ingress, no faults, 30s",
		Duration:    30 * time.Second,
		Shape: workload.BurstShape{
			BaseHz:   5_000,
			BurstHz:  50_000,
			PeriodNS: (5 * time.Second).Nanoseconds(),
			BurstNS:  time.Second.Nanoseconds(),
		},
		Keys:       65536,
		ZipfS:      1.3,
		Seed:       7,
		Mode:       hmts.ModeHMTS,
		QueueBound: 8192,
		Policy:     hmts.DropOldest,
		Buffer:     16384,
		OpCostNS:   5_000,
		Window:     time.Second,
		SLOs: []slo.Assertion{
			slo.LatencyBelow{Q: slo.P99, Bound: 2 * time.Second, Frac: 0.8},
			slo.BoundedBacklog{MaxIngress: 16384, MaxQueue: 3 * 8192},
			slo.MinThroughput{PerSec: 1_000, Frac: 0.8},
		},
	})

	// rampdecay: the diurnal swing of the ROADMAP's autoscaling scenario —
	// rate climbs 10x, holds, decays — with a mid-run rebalance once
	// measured stats exist and a cost spike near the peak.
	add(Scenario{
		Name:        "rampdecay",
		Description: "10x ramp-hold-decay with rebalance and cost spike at peak, 30s",
		Duration:    30 * time.Second,
		Shape: workload.RampDecayShape{
			FloorHz: 2_000,
			PeakHz:  20_000,
			RampNS:  (10 * time.Second).Nanoseconds(),
			HoldNS:  (10 * time.Second).Nanoseconds(),
			DecayNS: (8 * time.Second).Nanoseconds(),
		},
		Keys:       16384,
		ZipfS:      1.1,
		Seed:       11,
		Mode:       hmts.ModeHMTS,
		QueueBound: 8192,
		Policy:     hmts.DropNewest,
		Buffer:     16384,
		OpCostNS:   8_000,
		Window:     time.Second,
		Faults: []Fault{
			{Kind: FaultRebalance, At: 8 * time.Second},
			{Kind: FaultCostSpike, At: 12 * time.Second, Until: 16 * time.Second, CostNS: 100_000},
		},
		SLOs: []slo.Assertion{
			slo.LatencyBelow{Q: slo.P90, Bound: 2 * time.Second, Frac: 0.7},
			slo.BoundedBacklog{MaxIngress: 16384, MaxQueue: 3 * 8192},
			slo.MinThroughput{PerSec: 500, Frac: 0.8},
		},
	})

	// stall: a blocked downstream client under Block-policy ingress — the
	// end-to-end backpressure story. Latency must spike during the stall
	// and recover after it, with zero drops (Block never sheds).
	add(Scenario{
		Name:        "stall",
		Description: "slow-consumer stall and recovery under full backpressure, 20s",
		Duration:    20 * time.Second,
		Shape:       workload.ConstShape{Hz: 5_000},
		Keys:        8192,
		Seed:        3,
		Mode:        hmts.ModeGTS,
		QueueBound:  2048,
		Policy:      hmts.Block,
		Buffer:      8192,
		OpCostNS:    5_000,
		Window:      time.Second,
		Faults: []Fault{
			{Kind: FaultStall, At: 6 * time.Second, Until: 9 * time.Second, StallNS: int64(time.Millisecond)},
		},
		SLOs: []slo.Assertion{
			slo.LatencyBelow{Q: slo.P50, Bound: time.Second, Frac: 0.6},
			slo.BoundedBacklog{MaxIngress: 8192, MaxQueue: 3 * 2048},
			slo.MaxDropFrac{Frac: 0}, // Block policy: nothing may be shed
		},
	})

	// shard: the data-parallel region under fire — the stateful aggregation
	// runs split across key-partitioned replicas with bounded queues while
	// bursts land, and the replica count is grown and shrunk live mid-burst.
	// The SLOs are deadlock tripwires: a reshard that wedges the region, a
	// merge that stops releasing, or a bounded queue that deadlocks all show
	// up as starved throughput or unbounded backlog.
	add(Scenario{
		Name:        "shard",
		Description: "sharded aggregation with live replica-count changes mid-burst, ~9s",
		Duration:    9 * time.Second,
		Shape: workload.BurstShape{
			BaseHz:   3_000,
			BurstHz:  15_000,
			PeriodNS: (4 * time.Second).Nanoseconds(),
			BurstNS:  time.Second.Nanoseconds(),
			OffsetNS: time.Second.Nanoseconds(),
		},
		Keys:       4096,
		ZipfS:      1.2,
		Seed:       23,
		Mode:       hmts.ModeHMTS,
		QueueBound: 4096,
		Policy:     hmts.Block,
		Buffer:     8192,
		OpCostNS:   5_000,
		Window:     500 * time.Millisecond,
		Shards:     2,
		Faults: []Fault{
			{Kind: FaultReshard, At: 2500 * time.Millisecond, Shards: 4}, // grow inside the first burst
			{Kind: FaultReshard, At: 5500 * time.Millisecond, Shards: 1}, // shrink to a single replica
			{Kind: FaultReshard, At: 7 * time.Second, Shards: 3},
		},
		SLOs: []slo.Assertion{
			slo.LatencyBelow{Q: slo.P50, Bound: 2 * time.Second, Frac: 0.7},
			slo.LatencyBelow{Q: slo.P99, Bound: 5 * time.Second, Frac: 0.7},
			slo.BoundedBacklog{MaxIngress: 8192, MaxQueue: 3 * 4096},
			slo.MinThroughput{PerSec: 200, Frac: 0.6},
			slo.MaxDropFrac{Frac: 0}, // Block policy: nothing may be shed
		},
	})

	// autoscale: the closed control loop — a 10x ramp-hold-decay against a
	// sharded aggregation whose group function costs real CPU, with NO
	// scripted reshards: the adapt planner's reshard decision must grow the
	// replica count from measured c(v)/d(v) on the ramp and shrink it back
	// on the decay, within a reshard budget that forbids flapping. The
	// headroom is sized to the shape: per-replica pressure at the peak
	// (~0.2 with one replica) sits far above the grow threshold
	// (1.25 x 0.07), the floor (~0.02) below the shrink threshold
	// (0.5 x 0.07), and the solved targets land at 3 on the ramp and 1 on
	// the decay.
	add(Scenario{
		Name:        "autoscale",
		Description: "model-driven replica autoscaling over a 10x ramp-hold-decay, no scripted reshards, ~18s",
		Duration:    18 * time.Second,
		Shape: workload.RampDecayShape{
			FloorHz: 1_000,
			PeakHz:  10_000,
			RampNS:  (5 * time.Second).Nanoseconds(),
			HoldNS:  (3 * time.Second).Nanoseconds(),
			DecayNS: (5 * time.Second).Nanoseconds(),
		},
		Keys:       8192,
		ZipfS:      1.1,
		Seed:       31,
		Mode:       hmts.ModeHMTS,
		QueueBound: 4096,
		Policy:     hmts.Block,
		Buffer:     8192,
		OpCostNS:   2_000,
		Window:     500 * time.Millisecond,
		Shards:     1,
		AggCostNS:  20_000, // 20µs/element: 2% of a core at the floor, 20% at the peak
		Autoscale: &AutoscaleSpec{
			Period:        400 * time.Millisecond,
			Cooldown:      time.Second,
			Headroom:      0.07,
			MaxReplicas:   4,
			PauseBudget:   250 * time.Millisecond,
			MaxReshards:   6,
			RequireGrow:   true,
			RequireShrink: true,
		},
		SLOs: []slo.Assertion{
			slo.LatencyBelow{Q: slo.P99, Bound: 3 * time.Second, Frac: 0.7},
			slo.BoundedBacklog{MaxIngress: 8192, MaxQueue: 3 * 4096},
			slo.MinThroughput{PerSec: 300, Frac: 0.7},
			slo.MaxDropFrac{Frac: 0}, // Block policy: nothing may be shed
		},
	})

	// churn: the multi-query registration path under fire — 50 standing
	// queries are registered live through the subsumption rewriter while
	// bursts land on a Block-policy ingress, each new query splicing into
	// the shared prefix and, once a dozen are up, each registration also
	// pruning the oldest query's private suffix. The SLOs are splice
	// tripwires: a registration that wedges the halt/rewire/restart cycle,
	// a prune that strands a bounded queue, or a leak of executor capacity
	// all show up as starved throughput or unbounded backlog — and Block
	// policy means not one element may be shed across 50 add/drop splices.
	add(Scenario{
		Name:        "churn",
		Description: "50 live query registrations and drops mid-burst under Block ingress, zero drops, ~9s",
		Duration:    9 * time.Second,
		Shape: workload.BurstShape{
			BaseHz:   3_000,
			BurstHz:  15_000,
			PeriodNS: (4 * time.Second).Nanoseconds(),
			BurstNS:  time.Second.Nanoseconds(),
			OffsetNS: time.Second.Nanoseconds(),
		},
		Keys:       4096,
		ZipfS:      1.2,
		Seed:       57,
		Mode:       hmts.ModeGTS,
		QueueBound: 4096,
		Policy:     hmts.Block,
		Buffer:     8192,
		OpCostNS:   5_000,
		Window:     500 * time.Millisecond,
		Churn: &ChurnSpec{
			Start:    1500 * time.Millisecond,
			Stagger:  120 * time.Millisecond, // 50 registrations over ~6s
			Queries:  50,
			MaxAlive: 12,
		},
		SLOs: []slo.Assertion{
			slo.LatencyBelow{Q: slo.P50, Bound: 2 * time.Second, Frac: 0.7},
			slo.LatencyBelow{Q: slo.P99, Bound: 5 * time.Second, Frac: 0.7},
			slo.BoundedBacklog{MaxIngress: 8192, MaxQueue: 3 * 4096},
			slo.MinThroughput{PerSec: 200, Frac: 0.6},
			slo.MaxDropFrac{Frac: 0}, // Block policy: nothing may be shed
		},
	})

	// switchstorm: live reconfiguration under fire — mode and placement
	// switches every few seconds while bursts land. The engine must never
	// wedge and the measured path must keep flowing between switches.
	add(Scenario{
		Name:        "switchstorm",
		Description: "repeated live mode switches and rebalances under bursty load, 24s",
		Duration:    24 * time.Second,
		Shape: workload.BurstShape{
			BaseHz:   4_000,
			BurstHz:  20_000,
			PeriodNS: (6 * time.Second).Nanoseconds(),
			BurstNS:  (2 * time.Second).Nanoseconds(),
		},
		Keys:       8192,
		ZipfS:      1.2,
		Seed:       19,
		Mode:       hmts.ModeGTS,
		QueueBound: 4096,
		Policy:     hmts.DropNewest,
		Buffer:     8192,
		OpCostNS:   5_000,
		Window:     time.Second,
		Faults: []Fault{
			{Kind: FaultSwitchMode, At: 4 * time.Second, Mode: hmts.ModeHMTS},
			{Kind: FaultRebalance, At: 8 * time.Second},
			{Kind: FaultSwitchMode, At: 12 * time.Second, Mode: hmts.ModeGTS},
			{Kind: FaultSwitchMode, At: 16 * time.Second, Mode: hmts.ModeHMTS, Strategy: "chain"},
			{Kind: FaultRebalance, At: 20 * time.Second},
		},
		SLOs: []slo.Assertion{
			slo.LatencyBelow{Q: slo.P99, Bound: 3 * time.Second, Frac: 0.7},
			slo.BoundedBacklog{MaxIngress: 8192, MaxQueue: 3 * 4096},
			slo.MinThroughput{PerSec: 500, Frac: 0.7},
		},
	})

	return s
}

// Names returns the catalog's scenario names, sorted.
func Names() []string {
	m := Scenarios()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
