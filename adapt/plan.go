package adapt

import (
	"math"

	hmts "github.com/dsms/hmts"
)

// The planner's thresholds. They are constants, not options: no caller
// needs a different value.
const (
	// minSamples is the processed-element floor below which an
	// operator's measured cost is noise.
	minSamples = 100
	// persist is how many consecutive observations a condition must hold
	// before the planner acts on it.
	persist = 3
	// driftFactor: a measured cost beyond this factor of the cost the
	// current plan was built with, in either direction, makes the plan
	// stale.
	driftFactor = 4.0
	// growthFloor is the backlog, in elements, below which queue growth
	// is ignored.
	growthFloor = 10_000
	// shedEngage and shedRelease bound the shedding hysteresis: shed
	// above a load of 1, release below 0.8.
	shedEngage, shedRelease = 1.0, 0.8
	// scaleUpAt and scaleDownAt, times Config.Headroom, are the
	// per-replica loads past which a region grows or shrinks. Growth must
	// start above Headroom, or a region just resized to it re-triggers.
	scaleUpAt, scaleDownAt = 1.25, 0.5
	// maxSkew is the share of a region's input one replica may absorb
	// before growth is vetoed: the load is one hot key, and hashing it
	// across more replicas cannot split it.
	maxSkew = 0.8
	// otsMaxOps and gtsStallNS are where an architecture stops fitting:
	// OTS with this many operators pays needless per-thread overhead, GTS
	// with an operator this costly stalls every other one.
	otsMaxOps  = 16
	gtsStallNS = 1e6
)

// proposal is one action the planner wants executed; by names the
// condition that fired, and region and shards parameterize a Reshard.
type proposal struct {
	act    Action
	by     string
	region string
	shards int
}

// streakKey names one persisting condition: the trigger and the queue or
// region it holds for ("" for deployment-wide ones).
type streakKey struct{ by, name string }

// plan reads one snapshot and returns the proposals of every enabled
// decision. Every decision's condition must hold on persist consecutive
// snapshots. The planner remembers only those streaks and the previous
// queue lengths; whether sources shed, the cost each plan was built with,
// the mode and each region's replica count all come from the snapshot, so
// nothing in the planner can drift from what the engine actually did.
func (c *Controller) plan(m hmts.Metrics) []proposal {
	// The streaks are rebuilt every step: a condition that no longer
	// holds, or whose queue, operator or region left the snapshot, is
	// forgotten.
	next := make(map[streakKey]int)
	held := func(by, name string, cond bool) bool {
		if !cond {
			return false
		}
		k := streakKey{by, name}
		next[k] = min(c.streak[k]+1, persist)
		return next[k] >= persist
	}

	load := loads(m.Ops)
	var prs []proposal
	if c.cfg.Rebalance {
		if by := c.stale(m, held); by != "" {
			prs = append(prs, proposal{act: Rebalance, by: by})
		}
	}
	if c.cfg.Shed && len(m.Ingest) > 0 {
		shedding := false
		for _, in := range m.Ingest {
			shedding = shedding || in.Shedding
		}
		u := utilization(load, m.Executors)
		if !shedding && held("overload", "", u > shedEngage) {
			prs = append(prs, proposal{act: ShedOn, by: "overload"})
		}
		if shedding && held("underload", "", u < shedRelease) {
			prs = append(prs, proposal{act: ShedOff, by: "underload"})
		}
	}
	if c.cfg.Switch {
		if by := misfit(m); by != "" && held(by, "", true) {
			prs = append(prs, proposal{act: SwitchHMTS, by: by})
		}
	}
	if c.cfg.Reshard {
		prs = c.resize(prs, m, load, held)
	}
	c.streak = next
	return prs
}

// stale names why the current placement no longer fits, or returns "":
// a queue whose backlog above growthFloor kept growing, or an operator
// whose measured cost drifted past driftFactor from the cost the plan was
// built with. A Rebalance plans with the measured costs, so the drift
// clears once it ran and stays visible while it has not.
func (c *Controller) stale(m hmts.Metrics, held func(string, string, bool) bool) string {
	lens := make(map[string]int, len(m.Queues))
	grew, drifted := false, false
	for _, q := range m.Queues {
		last, seen := c.lastLen[q.Name]
		lens[q.Name] = q.Len
		if held("queue-growth", q.Name, seen && q.Len > growthFloor && q.Len > last) {
			grew = true
		}
	}
	c.lastLen = lens
	for _, o := range m.Ops {
		if held("cost-drift", o.Name, o.In >= minSamples && o.CostNS > 0 && o.PlannedCostNS > 0 &&
			math.Abs(math.Log(o.CostNS/o.PlannedCostNS)) > math.Log(driftFactor)) {
			drifted = true
		}
	}
	switch {
	case grew:
		return "queue-growth"
	case drifted:
		return "cost-drift"
	}
	return ""
}

// misfit names why the running architecture mismatches the graph, or
// returns "" — the paper's central claim applied as a decision.
func misfit(m hmts.Metrics) string {
	switch m.Mode {
	case hmts.ModeOTS:
		if len(m.Ops) >= otsMaxOps {
			return "ots-width"
		}
	case hmts.ModeGTS:
		for _, o := range m.Ops {
			if o.In >= minSamples && o.CostNS > gtsStallNS {
				return "gts-stall"
			}
		}
	}
	return ""
}

// resize appends a Reshard for every shard region whose per-replica load
// persisted outside the band around Headroom. A region's load is the sum
// of its replicas' c(v)/d(v); each replica's interarrival is its own, so
// the sum is the region's demand in replica-equivalents whatever the
// current count, and the solved count is ceil(load / Headroom).
func (c *Controller) resize(prs []proposal, m hmts.Metrics, load []float64, held func(string, string, bool) bool) []proposal {
	if len(m.Shards) == 0 {
		return prs
	}
	// Replicas are joined against the operators by name.
	replica := make(map[string]float64, len(m.Ops))
	for i, o := range m.Ops {
		if load[i] > 0 {
			replica[o.Name] = load[i]
		}
	}
	headroom := c.cfg.Headroom
	for _, s := range m.Shards {
		var u, busiest float64
		measured := false
		for _, rn := range s.Replicas {
			if l, ok := replica[rn]; ok {
				u += l
				busiest = max(busiest, l)
				measured = true
			}
		}
		if !measured || s.N < 1 {
			// Fresh replicas after a reshard have no reliable estimate
			// yet; hold position rather than act on noise.
			continue
		}
		// Pressure never drops below the busiest replica: under skew the
		// mean flatters the region, and shrinking because the average is
		// idle would melt the hot replica.
		pressure := max(u/float64(s.N), busiest)
		target := min(max(int(math.Ceil(u/headroom)), 1), c.cfg.MaxReplicas)
		up := held("scale-up", s.Name, pressure > scaleUpAt*headroom && target > s.N)
		down := held("scale-down", s.Name, pressure < scaleDownAt*headroom && target < s.N)
		// A vetoed proposal keeps its saturated streak, so it fires on
		// the first step the veto lifts.
		switch {
		case !up && !down:
		case up && s.N >= 2 && s.Skew >= maxSkew*float64(s.N):
			c.skewVetoes.Add(1)
		case s.PauseEstNS > c.cfg.PauseBudget.Nanoseconds():
			c.pauseVetoes.Add(1)
		case up:
			prs = append(prs, proposal{act: Reshard, by: "scale-up", region: s.Name, shards: target})
		default:
			prs = append(prs, proposal{act: Reshard, by: "scale-down", region: s.Name, shards: target})
		}
	}
	return prs
}

// settle resets the streaks behind an executed proposal, whether or not
// its action succeeded: a success waits for fresh evidence from the
// re-planned deployment, and a failure is retried only after a fresh
// persist window, not every period. A proposal the cooldown dropped keeps
// its streaks, and is proposed again while its condition holds.
func (c *Controller) settle(pr proposal) {
	for k := range c.streak {
		if k.by == pr.by && (pr.region == "" || k.name == pr.region) {
			delete(c.streak, k)
		}
	}
}

// loads is the planner's one load model: each operator's c(v)/d(v), mean
// processing cost over mean input interarrival, indexed like ops; 0 marks
// an operator without a reliable measurement. Zero or negative figures (an
// operator that has not run, a clock hiccup) are not measurements.
func loads(ops []hmts.OpMetrics) []float64 {
	load := make([]float64, len(ops))
	for i, o := range ops {
		if o.In >= minSamples && o.CostNS > 0 && o.InterarrivalNS > 0 {
			load[i] = o.CostNS / o.InterarrivalNS
		}
	}
	return load
}

// utilization estimates how loaded the deployment is: the larger of the
// busiest operator's load (a partition holding it is over capacity however
// threads are assigned) and the total load spread across the live
// executors. Every operator counts, including ones that share a name.
// Above 1 the deployment cannot keep pace with its input. d(v) is measured
// in event time, so a producer that stamps at its generation rate keeps
// the estimate meaningful while backpressure throttles delivery.
func utilization(load []float64, executors int) float64 {
	var total, busiest float64
	for _, l := range load {
		total += l
		busiest = max(busiest, l)
	}
	return max(busiest, total/float64(max(executors, 1)))
}
