// Package adapt implements runtime adaptation on top of the engine — the
// direction the paper's future-work section sketches: watch the running
// deployment's measured statistics and re-plan (queue placement, mode,
// load shedding, shard counts) while queries keep running.
//
// A Controller periodically reads one metrics snapshot and hands it to its
// planner, which derives every decision from one load model: each
// operator's c(v)/d(v). The planner is deliberately conservative: a
// condition must persist across consecutive observations, and the
// controller keeps a cool-down between actions, because every re-plan
// briefly pauses the world.
package adapt

import (
	"sync"
	"sync/atomic"
	"time"

	hmts "github.com/dsms/hmts"
)

// Action is what the planner wants done.
type Action int

// Possible actions, in increasing order of disruption.
const (
	// None leaves the deployment alone.
	None Action = iota
	// ShedOn engages emergency load shedding on every external source
	// (Engine.Shed(true)): full ingress buffers drop the newest element
	// instead of blocking or growing.
	ShedOn
	// ShedOff releases the shed override, restoring each external
	// source's configured overload policy (Engine.Shed(false)).
	ShedOff
	// Rebalance re-places queues from measured costs and rates
	// (Engine.Rebalance).
	Rebalance
	// SwitchHMTS moves the running engine to the hybrid architecture
	// (Engine.SwitchMode to ModeHMTS).
	SwitchHMTS
	// Reshard changes a shard region's replica count (Engine.Reshard).
	Reshard
)

// String names the action.
func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case ShedOn:
		return "shed-on"
	case ShedOff:
		return "shed-off"
	case Rebalance:
		return "rebalance"
	case SwitchHMTS:
		return "switch-hmts"
	case Reshard:
		return "reshard"
	}
	return "Action(?)"
}

// Event records one controller decision, for observability and tests.
type Event struct {
	At      time.Time
	Trigger string // the planner condition that fired, e.g. "cost-drift"
	Action  Action
	Region  string // Reshard: target region
	Shards  int    // Reshard: target replica count
	// Dropped marks a proposal suppressed by the cooldown gate; it was
	// recorded for observability but never executed.
	Dropped bool
	Err     error
}

// maxEvents bounds Controller.Events: the newest events are kept.
const maxEvents = 1024

// Config selects what a controller decides and sizes its deployment.
// Every other threshold is a named constant of the planner (see plan.go).
type Config struct {
	// Period is the step interval (default 100ms); Cooldown the minimum
	// gap between executed actions.
	Period, Cooldown time.Duration

	// The decisions that run: Rebalance re-places queues on backlog
	// growth or cost drift, Shed engages and releases load shedding,
	// Switch moves a mismatched OTS/GTS deployment to HMTS, and Reshard
	// resizes shard regions.
	Rebalance, Shed, Switch, Reshard bool

	// Headroom is the per-replica load a reshard aims for: target =
	// ceil(region load / Headroom) (default 0.7).
	Headroom float64
	// MaxReplicas caps the solved replica count (default 8).
	MaxReplicas int
	// PauseBudget vetoes a reshard whose estimated state-handoff pause
	// exceeds it (default 100ms).
	PauseBudget time.Duration
}

// Controller drives the adaptation loop.
type Controller struct {
	eng *hmts.Engine
	cfg Config
	// propose turns a snapshot into proposals; it is the planner (plan),
	// and tests replace it to script proposals.
	propose func(hmts.Metrics) []proposal

	// stepMu serializes Step so concurrent callers (the loop plus a test
	// or an operator console) cannot both pass the cooldown check and
	// act. It also guards the planner state below.
	stepMu  sync.Mutex
	streak  map[streakKey]int
	lastLen map[string]int

	skewVetoes, pauseVetoes atomic.Int64

	mu      sync.Mutex
	events  []Event
	last    time.Time
	started bool
	closed  bool

	stop chan struct{}
	done chan struct{}
}

// New returns a controller over eng that steps every cfg.Period.
func New(eng *hmts.Engine, cfg Config) *Controller {
	if cfg.Period <= 0 {
		cfg.Period = 100 * time.Millisecond
	}
	if cfg.Headroom <= 0 {
		cfg.Headroom = 0.7
	}
	if cfg.MaxReplicas < 1 {
		cfg.MaxReplicas = 8
	}
	if cfg.PauseBudget <= 0 {
		cfg.PauseBudget = 100 * time.Millisecond
	}
	c := &Controller{
		eng:  eng,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.propose = c.plan
	return c
}

// Start launches the control loop; call Stop to end it. Calling Start
// again while the loop is live is a no-op, so a double Start cannot leak a
// second ticker goroutine.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(c.cfg.Period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.Step()
			case <-c.stop:
				return
			}
		}
	}()
}

// Stop ends the control loop and waits for it. It is idempotent and
// returns immediately when Start was never called — there is no loop
// goroutine to wait for in that case.
func (c *Controller) Stop() {
	c.mu.Lock()
	started := c.started
	if !c.closed {
		c.closed = true
		close(c.stop)
	}
	c.mu.Unlock()
	if started {
		<-c.done
	}
}

// Step runs one evaluation immediately (exposed for deterministic tests).
// It returns the first action attempted, or None.
//
// The cooldown gate is read once per step: either the whole step is
// cooling — every proposal is recorded as a Dropped event and nothing
// executes — or none of it is, and every proposal executes. The planner
// runs either way, so a chatty decision (a Rebalance each period, say)
// cannot silence a later ShedOff for the length of its cooldown storm,
// and a dropped proposal is proposed again once its condition still
// holds after the cooldown.
func (c *Controller) Step() Action {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	m := c.eng.Metrics()
	c.mu.Lock()
	cooling := time.Since(c.last) < c.cfg.Cooldown
	c.mu.Unlock()

	first := None
	executed := false
	for _, pr := range c.propose(m) {
		ev := Event{At: time.Now(), Trigger: pr.by, Action: pr.act,
			Region: pr.region, Shards: pr.shards, Dropped: cooling}
		if !cooling {
			ev.Err = c.execute(pr)
			if first == None {
				first = pr.act
			}
			executed = executed || ev.Err == nil
			c.settle(pr)
		}
		c.record(ev)
	}
	// A failed action did no re-planning, so it must not burn the cooldown
	// and silence every decision for a full window; the errors are still
	// recorded as events, and settle made the failed trigger wait a fresh
	// persist window before it is retried.
	if executed {
		c.mu.Lock()
		c.last = time.Now()
		c.mu.Unlock()
	}
	return first
}

func (c *Controller) execute(pr proposal) error {
	switch pr.act {
	case ShedOn:
		c.eng.Shed(true)
	case ShedOff:
		c.eng.Shed(false)
	case Rebalance:
		return c.eng.Rebalance()
	case SwitchHMTS:
		return c.eng.SwitchMode(hmts.ModeHMTS, "")
	case Reshard:
		return c.eng.Reshard(pr.region, pr.shards)
	}
	return nil
}

// record appends ev, evicting the oldest event past maxEvents.
func (c *Controller) record(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	if len(c.events) > maxEvents {
		c.events = c.events[1:]
	}
	c.mu.Unlock()
}

// Events returns a copy of the newest decisions, oldest first; at most
// 1024 are kept.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Vetoes reports how many reshards the planner held back because one
// replica absorbed most of the input (skew) or because the state handoff
// would pause the region past the budget (pause).
func (c *Controller) Vetoes() (skew, pause int64) {
	return c.skewVetoes.Load(), c.pauseVetoes.Load()
}
