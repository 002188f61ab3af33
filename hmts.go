package hmts

import (
	"fmt"
	"sync"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/placement"
	"github.com/dsms/hmts/internal/sched"
	"github.com/dsms/hmts/internal/stream"
)

// Element is the unit of data flowing through queries. See stream.Element
// for field semantics: TS is the event timestamp in nanoseconds, Key the
// integer attribute joins and predicates use, Val the numeric payload, Aux
// an opaque application payload.
type Element = stream.Element

// Time is an event timestamp in nanoseconds.
type Time = stream.Time

// Mode selects the threading architecture for a run.
type Mode int

// The scheduling modes of the paper (§4). GTS and OTS are the two
// classical extremes; DI fuses all operators behind one queue per source;
// PureDI runs operators inside the source threads; HMTS partitions the
// graph with the stall-avoiding heuristic and arbitrates the partition
// threads with the level-3 thread scheduler.
const (
	ModeGTS Mode = iota
	ModeOTS
	ModeDI
	ModePureDI
	ModeHMTS
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeGTS:
		return "gts"
	case ModeOTS:
		return "ots"
	case ModeDI:
		return "di"
	case ModePureDI:
		return "pure-di"
	case ModeHMTS:
		return "hmts"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the spelling Mode.String produces ("gts", "ots", "di",
// "pure-di", "hmts"; "puredi" is accepted too), as used in the hmtsd
// protocol and ql scripts.
func ParseMode(s string) (Mode, error) {
	if s == "puredi" {
		return ModePureDI, nil
	}
	for m := ModeGTS; m <= ModeHMTS; m++ {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("hmts: unknown mode %q", s)
}

// RunConfig tunes a run. The zero value is a valid GTS/FIFO configuration.
type RunConfig struct {
	// Mode selects the threading architecture.
	Mode Mode
	// Strategy names the level-2 scheduling strategy: "fifo" (default)
	// or "chain" (paper §6.6). Any other name makes Run and SwitchMode
	// return an error.
	Strategy string
	// Batch bounds how many elements an executor drains from one queue
	// per strategy decision (default 64).
	Batch int
	// Quantum is the executor time slice before re-arbitration (default
	// 2ms).
	Quantum time.Duration
	// MaxThreads bounds how many partition executors run concurrently in
	// ModeHMTS (default GOMAXPROCS). Ignored in other modes, which follow
	// the paper in not using the level-3 scheduler.
	MaxThreads int
	// QueueBound bounds decoupling queues for backpressure (0 =
	// unbounded). Safe under every mode, thread budget and live
	// mutation: a producer waits for space only at virtual-operator
	// entry, holding no run permit or structural lock. The bound is
	// strict for cross-thread producers; a producer that is its own
	// consumer overshoots it rather than self-deadlock, as does a live
	// mutation.
	QueueBound int
}

// Engine owns a query graph under construction and, after Run, its live
// deployment.
type Engine struct {
	g       *graph.Graph
	d       *sched.Deployment
	cfg     RunConfig
	running bool
	// mu serializes live mutations (SwitchMode, Rebalance, Reshard,
	// AddQuery, DropQuery) against each other and against snapshot
	// readers (Metrics), which walk the node table and read measured
	// stats and the mode.
	mu sync.RWMutex

	// Multi-query registration state (see query.go). queries maps a
	// registered standing query's name to its record, refs counts how many
	// registered queries reference each operator node, and curQuery is
	// non-nil only while an AddQuery build closure runs — it is what makes
	// the builder's place() share operators.
	queries  map[string]*queryReg
	refs     map[int]int
	curQuery *queryReg
	nextQSeq int
}

// New returns an empty engine.
func New() *Engine { return &Engine{g: graph.New()} }

// Graph exposes the underlying query graph for inspection (DOT export,
// planning experiments). Mutating it after Run is invalid.
func (e *Engine) Graph() *graph.Graph { return e.g }

// plan derives the deployment plan for a mode.
func (e *Engine) plan(mode Mode) (sched.Plan, sched.Options) {
	opts := sched.Options{
		Strategy:   e.cfg.Strategy,
		Batch:      e.cfg.Batch,
		Quantum:    e.cfg.Quantum,
		QueueBound: e.cfg.QueueBound,
	}
	var p sched.Plan
	switch mode {
	case ModeGTS:
		p = sched.GTS(e.g)
	case ModeOTS:
		p = sched.OTS(e.g)
	case ModeDI:
		p = sched.DI(e.g)
	case ModePureDI:
		p = sched.PureDI(e.g)
	case ModeHMTS:
		if err := e.g.DeriveRates(); err != nil {
			panic("hmts: " + err.Error())
		}
		p = sched.HMTS(e.g)
		opts.TS = &sched.TSConfig{MaxConcurrent: e.cfg.MaxThreads}
	default:
		panic(fmt.Sprintf("hmts: unknown mode %v", mode))
	}
	return p, opts
}

// Run validates the graph, deploys it under the configured mode and starts
// processing. It returns an error if the graph is structurally invalid.
// It holds the engine lock, so a concurrent Metrics snapshot sees the
// engine either before or after the deployment.
func (e *Engine) Run(cfg RunConfig) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return fmt.Errorf("hmts: engine already running")
	}
	e.cfg = cfg
	plan, opts := e.plan(cfg.Mode)
	d, err := sched.Build(e.g, plan, opts)
	if err != nil {
		return err
	}
	e.d = d
	e.running = true
	d.Start()
	return nil
}

// MustRun is Run, panicking on error; convenient in examples and tests.
func (e *Engine) MustRun(cfg RunConfig) {
	if err := e.Run(cfg); err != nil {
		panic(err)
	}
}

// Wait blocks until all sources are exhausted and all queues drained.
func (e *Engine) Wait() {
	if e.d != nil {
		e.d.Wait()
	}
}

// Stop aborts processing; queued elements may be dropped.
func (e *Engine) Stop() {
	if e.d != nil {
		e.d.Stop()
	}
}

// Err returns the first operator failure observed by the deployment, or
// nil. A panicking operator fail-stops the engine: sources stop, executors
// halt, and the panic is captured here instead of crashing the process.
func (e *Engine) Err() error {
	if e.d == nil {
		return nil
	}
	return e.d.Err()
}

// SwitchMode changes the threading architecture of a running engine. A
// switch between GTS and OTS keeps the cut and only re-groups the
// executors over the existing queues (the paper's instant switch); any
// other transition also re-places queues, draining those that are removed.
// strategy is "fifo" or "chain", or empty to keep the running one; any
// other name is an error and leaves the engine untouched.
func (e *Engine) SwitchMode(mode Mode, strategy string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.d == nil {
		return fmt.Errorf("hmts: engine not running")
	}
	newPlan, _ := e.plan(mode)
	if err := e.d.Reconfigure(newPlan, strategy); err != nil {
		return err
	}
	e.cfg.Mode = mode
	return nil
}

// Rebalance re-partitions the running graph using the operators' measured
// costs, selectivities and rates — the adaptive runtime queue placement
// the paper lists as future work. Queues are inserted or removed (after
// draining) as the stall-avoiding heuristic dictates.
func (e *Engine) Rebalance() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.d == nil {
		return fmt.Errorf("hmts: engine not running")
	}
	e.g.AdoptMeasuredStats()
	cut := placement.FirstFitDecreasing(e.g)
	return e.d.Reconfigure(sched.Plan{Cut: cut}, "")
}

// Reshard changes the replica count of the shard region built from the
// operator of the given name (see Stream.Shard). Before Run it is pure
// graph surgery — the replicas have no state yet. On a running engine the
// region is quiesced, its window state re-hashed across the new replicas,
// and processing resumes with no seam in the output order: downstream
// consumers see exactly the elements they would have seen without the
// resize. Resizing is refused once the region's input streams have started
// closing.
func (e *Engine) Reshard(name string, n int) error {
	gr := e.g.ShardGroup(name)
	if gr == nil {
		return fmt.Errorf("hmts: no shard region %q", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.d == nil {
		_, err := e.g.ResizeShard(gr, n)
		return err
	}
	return e.d.Reshard(gr, n)
}

// Shed engages (true) or releases (false) emergency load shedding: every
// external source (see External) temporarily switches its overload policy
// to DropNewest, bounding ingress memory and keeping the engine responsive
// while demand exceeds capacity; releasing restores each source's
// configured policy. Unlike SwitchMode/Rebalance it never pauses the
// world — it only flips per-source policy flags — so the adaptive
// controller can engage it cheaply (adapt.Config.Shed). Sources other
// than external ones are unaffected. Safe before and during a run.
func (e *Engine) Shed(on bool) {
	for _, n := range e.g.Sources() {
		if sh, ok := n.Src.(interface{ Shed(bool) }); ok {
			sh.Shed(on)
		}
	}
}

// Deployment exposes the live deployment for advanced inspection (queues,
// executors, VO structure); nil before Run.
func (e *Engine) Deployment() *sched.Deployment { return e.d }

// node wraps graph node creation with builder handles.
func (e *Engine) addOp(name string, o op.Operator, costNS, sel float64) *graph.Node {
	return e.g.AddOp(name, o, costNS, sel)
}
