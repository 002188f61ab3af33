package sched

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
)

// Deployment is a running realization of a query graph under a plan: the
// queues created on cut edges, the DI wiring between them, the autonomous
// source goroutines and the level-2/level-3 executors. It supports runtime
// adaptation through one live-mutation primitive (mutate): regrouping
// executors (e.g. switching OTS ↔ GTS, paper §4.2.2), re-cutting the graph
// (inserting and removing queues, §5.1.3), splicing queries in and out
// and resizing shard regions.
type Deployment struct {
	g    *graph.Graph
	opts Options
	ts   *TS

	// world serializes structural changes against sources: a source holds
	// it for reading around every VO entry; mutate holds it for writing,
	// after halting every executor.
	world sync.RWMutex

	// admin serializes management operations (Stop, live mutations,
	// accessor snapshots) against each other — a fail-stop
	// triggered by an operator panic runs Stop concurrently with
	// whatever the caller is doing.
	admin   sync.Mutex
	execGen int

	// single remembers whether the last analyze ran with SingleGroup (GTS)
	// so a live re-shard can re-analyze without changing the threading
	// discipline.
	single bool

	cut      map[graph.EdgeKey]bool
	comps    [][]int
	voOf     map[int]int
	gates    []*sync.Mutex             // VO index -> entry gate, nil with one driver
	outlets  map[graph.EdgeKey]*outlet // cut edge -> its outlet and queue
	units    map[int][]*Unit           // VO index -> entry units
	groupOf  []int                     // VO index -> executor group
	execs    []*Exec
	adapters map[int]*srcAdapter // source node ID -> adapter

	// reshardOverheadNS / reshardPerRowNS model the stop-the-region pause
	// a live Reshard costs: a fixed splice overhead plus a per-retained-row
	// state-handoff cost. Seeded with defaults and EWMA-updated from each
	// measured Reshard (see pausemodel.go); read lock-free by
	// ReshardPauseEstimateNS so a planner can veto an expensive migration.
	reshardOverheadNS atomic.Int64
	reshardPerRowNS   atomic.Int64

	started bool
	stopped atomic.Bool
	srcWG   sync.WaitGroup

	errMu sync.Mutex
	err   error
}

// srcTarget is one resolved output edge of a source.
type srcTarget struct {
	sink op.Sink
	port int
}

// srcAdapter is the Sink handed to a source's Run; it fans elements out to
// the source's resolved targets under the world read lock so a live
// mutation can rewire safely. The lock is taken only at VO entry (see
// enter), so a mutation never runs while the source is inside an
// operator, and a whole fan-out happens on one side of it.
type srcAdapter struct {
	d       *Deployment
	targets []srcTarget
	// gate is the entry gate of the source's VO, if it has one, and front
	// its frontier; both are written under the world write lock.
	gate  *sync.Mutex
	front frontier
	// finished is set when the source's Done goes down its edges; a
	// mutation sees it for all of them or for none.
	finished atomic.Bool
}

// enter takes the world read lock and the VO gate at the VO entry, where
// no operator frame of the source's VO is on the stack. What the frontier
// holds back is settled first, and while an outlet there stays full the
// source parks on its queue holding nothing. A stopped deployment's
// queues are poisoned and drop what they are given, so there is nothing
// left to wait for.
func (a *srcAdapter) enter() {
	for {
		a.d.world.RLock()
		if a.gate != nil {
			a.gate.Lock()
		}
		full := a.front.settle()
		if full == nil || a.d.stopped.Load() {
			return
		}
		a.leave()
		full.WaitSpace(nil)
	}
}

func (a *srcAdapter) leave() {
	if a.gate != nil {
		a.gate.Unlock()
	}
	a.d.world.RUnlock()
}

// ProcessBatch implements op.Sink: a source hands its ready elements over
// in one call (a batch of one when only one is ready), and each target —
// notably the decoupling queue — receives them under a single lock
// acquisition instead of one per element.
func (a *srcAdapter) ProcessBatch(_ int, es []stream.Element) { a.deliver(es, false) }

// Done implements op.Sink.
func (a *srcAdapter) Done(int) { a.deliver(nil, true) }

// deliver runs one entry — the batch, or end-of-stream — and then, if
// the frontier held output back, settles it before the source goes on.
func (a *srcAdapter) deliver(es []stream.Element, done bool) {
	if a.entry(es, done) {
		a.enter()
		a.leave()
	}
}

// entry delivers to every target and reports whether the frontier held
// output back. The locks are released via defer so that a panicking
// operator cannot leak the world lock or a VO gate.
func (a *srcAdapter) entry(es []stream.Element, done bool) bool {
	a.enter()
	defer a.leave()
	if done {
		a.finished.Store(true)
	}
	for _, t := range a.targets {
		if done {
			t.sink.Done(t.port)
		} else {
			t.sink.ProcessBatch(t.port, es)
		}
	}
	return a.front.holding()
}

// Build validates the graph against the plan and constructs a deployment.
// Nothing runs until Start.
func Build(g *graph.Graph, plan Plan, opts Options) (*Deployment, error) {
	if err := CheckStrategy(opts.Strategy); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cut, err := normalizeCut(g, plan.Cut)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		g:        g,
		opts:     opts,
		cut:      cut,
		outlets:  make(map[graph.EdgeKey]*outlet),
		adapters: make(map[int]*srcAdapter),
	}
	if opts.TS != nil {
		maxc := opts.TS.MaxConcurrent
		if maxc < 1 {
			maxc = runtime.GOMAXPROCS(0)
		}
		d.ts = NewTS(maxc)
	}
	if err := d.analyze(plan.Groups, plan.SingleGroup); err != nil {
		return nil, err
	}
	d.wire()
	d.rebuild()
	return d, nil
}

// normalizeCut copies a plan's cut, adds the edges every plan must cut
// and rejects a cut edge into a sink.
func normalizeCut(g *graph.Graph, planCut map[graph.EdgeKey]bool) (map[graph.EdgeKey]bool, error) {
	cut := make(map[graph.EdgeKey]bool, len(planCut))
	for k, v := range planCut {
		if v {
			cut[k] = true
		}
	}
	// Shard-region internal edges must always be cut, whatever the plan
	// says: fusing split→replica or replica→merge edges into one VO would
	// run the replicas serially and defeat the data parallelism.
	for k := range g.MustCut() {
		cut[k] = true
	}
	for k := range cut {
		if g.Node(k.To).Kind == graph.KindSink {
			return nil, fmt.Errorf("sched: cut edge %v targets a sink; sink edges always use DI", k)
		}
	}
	return cut, nil
}

// layout derives the virtual operators of a cut (the components of the
// uncut edges), the VO index of every non-sink node and each VO's
// executor group. It is pure: Reconfigure validates a plan with it before
// touching anything.
func layout(g *graph.Graph, cut map[graph.EdgeKey]bool, groups [][]int, single bool) (comps [][]int, voOf map[int]int, groupOf []int, err error) {
	comps = g.Components(cut)
	voOf = make(map[int]int)
	for vi, comp := range comps {
		for _, id := range comp {
			voOf[id] = vi
		}
	}
	groupOf = make([]int, len(comps))
	for i := range groupOf {
		groupOf[i] = -1
	}
	next := 0
	switch {
	case single:
		for i := range groupOf {
			groupOf[i] = 0
		}
		next = 1
	case groups != nil:
		for gi, ids := range groups {
			for _, id := range ids {
				vi, ok := voOf[id]
				if !ok {
					return nil, nil, nil, fmt.Errorf("sched: grouped node %d is a sink or unknown", id)
				}
				if groupOf[vi] != -1 && groupOf[vi] != gi {
					return nil, nil, nil, fmt.Errorf("sched: VO of node %d split across groups %d and %d", id, groupOf[vi], gi)
				}
				groupOf[vi] = gi
			}
		}
		next = len(groups)
	}
	for i := range groupOf {
		if groupOf[i] == -1 {
			groupOf[i] = next
			next++
		}
	}
	if groups != nil {
		if err := groupCycle(g, cut, voOf, groupOf, next); err != nil {
			return nil, nil, nil, err
		}
	}
	return comps, voOf, groupOf, nil
}

// groupCycle rejects a grouping whose executors can wait on each other in
// a cycle (see coop.go): an executor waits for space on the queues leaving
// the VOs it drains, so a cut edge out of a VO with an entry queue makes
// its group wait on the group of the VO it enters. The engine's own plans
// (one executor per VO, or one for all) never form such a cycle; a
// hand-written Plan.Groups that puts an upstream and a downstream VO on
// one executor and a VO between them on another does.
func groupCycle(g *graph.Graph, cut map[graph.EdgeKey]bool, voOf map[int]int, groupOf []int, n int) error {
	drained := make(map[int]bool) // VOs with an entry queue
	for k := range cut {
		drained[voOf[k.To]] = true
	}
	waits := make([][]int, n)
	indeg := make([]int, n)
	for k := range cut {
		from, to := groupOf[voOf[k.From]], groupOf[voOf[k.To]]
		if from != to && drained[voOf[k.From]] && !slices.Contains(waits[from], to) {
			waits[from] = append(waits[from], to)
			indeg[to]++
		}
	}
	// Kahn's algorithm: groups left over lie on a cycle.
	var free []int
	for gi, d := range indeg {
		if d == 0 {
			free = append(free, gi)
		}
	}
	for len(free) > 0 {
		gi := free[len(free)-1]
		free = free[:len(free)-1]
		for _, to := range waits[gi] {
			if indeg[to]--; indeg[to] == 0 {
				free = append(free, to)
			}
		}
	}
	for _, d := range indeg {
		if d > 0 {
			return fmt.Errorf("sched: executor groups can wait on each other in a cycle; group VOs along the dataflow")
		}
	}
	return nil
}

// analyze computes VOs, executor groups and gates from the current cut.
// On error the previous layout is left in place.
func (d *Deployment) analyze(groups [][]int, single bool) error {
	comps, voOf, groupOf, err := layout(d.g, d.cut, groups, single)
	if err != nil {
		return err
	}
	d.single, d.comps, d.voOf, d.groupOf = single, comps, voOf, groupOf

	// Gates: a VO needs entry serialization when it can have more than
	// one driver — several fused sources, or a fused source plus an
	// executor draining its entry queues.
	nSrc := make([]int, len(d.comps))
	hasEntry := make([]bool, len(d.comps))
	for vi, comp := range d.comps {
		for _, id := range comp {
			if d.g.Node(id).Kind == graph.KindSource {
				nSrc[vi]++
			}
		}
	}
	for _, e := range d.g.Edges() {
		if d.cut[e.Key()] {
			hasEntry[d.voOf[e.To]] = true
		}
	}
	d.gates = make([]*sync.Mutex, len(d.comps))
	for vi := range d.comps {
		if nSrc[vi] >= 2 || (nSrc[vi] >= 1 && hasEntry[vi]) {
			d.gates[vi] = new(sync.Mutex)
		}
	}
	return nil
}

// wire creates queues on cut edges and subscribes every operator edge;
// source targets, units and executors are derived by rebuild.
func (d *Deployment) wire() {
	for _, n := range d.g.Sources() {
		d.adapters[n.ID] = &srcAdapter{d: d}
	}
	for _, e := range d.g.Edges() {
		from, to := d.g.Node(e.From), d.g.Node(e.To)
		target, tport := downstreamSink(to), e.ToPort
		if d.cut[e.Key()] {
			target, tport = d.newOutlet(e, false), 0
		}
		if from.Kind != graph.KindSource {
			d.subscribe(from, e, target, tport)
		}
	}
}

// newOutlet creates the queue of cut edge e, subscribed to e's consumer,
// and the outlet its producer emits into. A closed queue is born with
// its input ended, for an edge whose end-of-stream already went down.
func (d *Deployment) newOutlet(e graph.Edge, closed bool) *outlet {
	from, to := d.g.Node(e.From), d.g.Node(e.To)
	q := queue.New(fmt.Sprintf("q(%s->%s)", from.Name, to.Name), d.opts.QueueBound)
	if closed {
		q.Done(0)
		q.DrainBatch(nil, 0) // no subscriber yet: closes without a second Done
	}
	q.Subscribe(to.Op, e.ToPort)
	o := &outlet{q: q, bound: d.opts.QueueBound}
	d.outlets[e.Key()] = o
	return o
}

// subscribe attaches target to the out-edge e of operator node from,
// through the split's routing table when e leaves a shard split.
func (d *Deployment) subscribe(from *graph.Node, e graph.Edge, target op.Sink, tport int) {
	if sh, ok := d.g.SplitEdgeShard(e); ok {
		from.Op.(*op.Split).SubscribeShard(sh, e.ToPort, target, tport)
	} else {
		from.Op.Subscribe(target, tport)
	}
}

// fail records the first failure and fail-stops the deployment: sources
// are stopped and executors halt. Queued elements are abandoned — a
// panicking operator has violated its contract and its partition's state
// is suspect.
func (d *Deployment) fail(err error) {
	d.errMu.Lock()
	first := d.err == nil
	if first {
		d.err = err
	}
	d.errMu.Unlock()
	if first {
		go d.Stop()
	}
}

// checkLive refuses a live mutation once the deployment has stopped:
// replacing the executors after Stop would resurrect the deployment. A
// fail-stop records its error before its asynchronous Stop runs, so a
// recorded error counts as stopped too. Callers hold d.admin.
func (d *Deployment) checkLive(what string) error {
	if d.stopped.Load() || d.Err() != nil {
		return fmt.Errorf("sched: %s on a stopped deployment", what)
	}
	return nil
}

// Err returns the first operator failure observed, or nil.
func (d *Deployment) Err() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// rebuild derives everything that follows from the wired queues and the
// current VO layout: source targets and frontiers, units and executors.
// Caller holds the world write lock or has not started the deployment.
func (d *Deployment) rebuild() {
	front := d.frontiers()
	d.rewireTargets(front)
	d.refreshUnits(front)
	d.buildExecs()
}

// frontiers returns, per VO index, the frontier of the VO as the executor
// of its group sees it: the outlets on the cut edges leaving the VO,
// split by whether another executor drains their queue, sharing one
// fresh holding count (every outlet is empty when the structure is
// rebuilt). It is nil when queues are unbounded, since then nothing is
// ever held back.
func (d *Deployment) frontiers() map[int]frontier {
	if d.opts.QueueBound == 0 {
		return nil
	}
	front := make(map[int]frontier)
	for k, o := range d.outlets {
		vi := d.voOf[k.From]
		f := front[vi]
		if f.held == nil {
			f.held = new(int)
		}
		o.holds = f.held
		if d.groupOf[d.voOf[k.To]] == d.groupOf[vi] {
			f.own = append(f.own, o)
		} else {
			f.wait = append(f.wait, o)
		}
		front[vi] = f
	}
	return front
}

// buildExecs creates one executor per group that owns at least one queue.
func (d *Deployment) buildExecs() {
	byGroup := make(map[int][]*Unit)
	for vi, us := range d.units {
		gi := d.groupOf[vi]
		byGroup[gi] = append(byGroup[gi], us...)
	}
	groups := make([]int, 0, len(byGroup))
	for gi := range byGroup {
		groups = append(groups, gi)
	}
	sort.Ints(groups)
	d.execGen++
	d.execs = nil
	for _, gi := range groups {
		us := byGroup[gi]
		sort.Slice(us, func(i, j int) bool { return us[i].Q.Name() < us[j].Q.Name() })
		x := newExec(fmt.Sprintf("exec-g%d", gi), us, NewStrategy(d.opts.Strategy), d.opts.batch(), d.opts.quantum(), d.ts, d.fail)
		d.execs = append(d.execs, x)
	}
}

// Start launches source goroutines and executors. It panics if called
// twice.
func (d *Deployment) Start() {
	if d.started {
		panic("sched: deployment started twice")
	}
	d.started = true
	for _, x := range d.execs {
		x.start()
	}
	for _, n := range d.g.Sources() {
		a := d.adapters[n.ID]
		src := n.Src
		d.srcWG.Add(1)
		go func() {
			defer d.srcWG.Done()
			defer func() {
				if r := recover(); r != nil {
					d.fail(fmt.Errorf("sched: operator panic in source thread %s: %v", src.Name(), r))
				}
			}()
			src.Run(a, 0)
		}()
	}
}

// Wait blocks until every source has finished and every executor has
// drained its queues to completion. It tolerates concurrent regrouping:
// if the executor set changed while waiting, it waits for the new set too.
func (d *Deployment) Wait() {
	for {
		d.admin.Lock()
		gen := d.execGen
		execs := append([]*Exec(nil), d.execs...)
		d.admin.Unlock()
		d.srcWG.Wait()
		for _, x := range execs {
			x.wait()
		}
		d.admin.Lock()
		same := gen == d.execGen
		d.admin.Unlock()
		if same {
			return
		}
	}
}

// Stop aborts processing: sources are asked to stop, queues are poisoned
// so producers waiting for space are released, and executors halt after
// their current batch. Queued elements may remain unprocessed, and what
// outlets still hold back is dropped into the poisoned queues, where it
// is counted.
func (d *Deployment) Stop() {
	if d.stopped.Swap(true) {
		return
	}
	d.admin.Lock()
	defer d.admin.Unlock()
	for _, n := range d.g.Sources() {
		n.Src.Stop()
	}
	for _, o := range d.outlets {
		o.q.Poison()
	}
	for _, x := range d.execs {
		x.halt()
	}
	d.srcWG.Wait()
	d.flushOutlets()
}

// flushOutlets force-flushes every outlet into its queue. Every driver
// must be out: executors halted, sources finished or locked out.
func (d *Deployment) flushOutlets() {
	for _, o := range d.outlets {
		o.flush(true)
	}
}

// Queues returns the live decoupling queues in deterministic order; the
// experiment harness attaches its memory sampler to them.
func (d *Deployment) Queues() []*queue.Queue {
	d.admin.Lock()
	defer d.admin.Unlock()
	keys := make([]graph.EdgeKey, 0, len(d.outlets))
	for k := range d.outlets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.ToPort < b.ToPort
	})
	out := make([]*queue.Queue, len(keys))
	for i, k := range keys {
		out[i] = d.outlets[k].q
	}
	return out
}

// Cut returns a copy of the current cut set (the edges carrying queues).
func (d *Deployment) Cut() map[graph.EdgeKey]bool {
	d.admin.Lock()
	defer d.admin.Unlock()
	out := make(map[graph.EdgeKey]bool, len(d.cut))
	for k, v := range d.cut {
		if v {
			out[k] = true
		}
	}
	return out
}

// Queue returns the queue on the given cut edge, or nil.
func (d *Deployment) Queue(k graph.EdgeKey) *queue.Queue {
	d.admin.Lock()
	defer d.admin.Unlock()
	if o := d.outlets[k]; o != nil {
		return o.q
	}
	return nil
}

// Execs returns the current executors.
func (d *Deployment) Execs() []*Exec {
	d.admin.Lock()
	defer d.admin.Unlock()
	return append([]*Exec(nil), d.execs...)
}

// TS returns the level-3 thread scheduler, or nil if level 3 is disabled.
func (d *Deployment) TS() *TS { return d.ts }

// VOs returns the node-ID sets of the current virtual operators.
func (d *Deployment) VOs() [][]int {
	d.admin.Lock()
	defer d.admin.Unlock()
	out := make([][]int, len(d.comps))
	for i, c := range d.comps {
		out[i] = append([]int(nil), c...)
	}
	return out
}
