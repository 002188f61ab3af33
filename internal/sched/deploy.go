package sched

import (
	"fmt"
	"runtime"
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

	// world serializes structural changes against data flow: sources and
	// executors hold it for reading around every push/drain; mutate holds
	// it for writing.
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
	gates    []*Gate
	queues   map[graph.EdgeKey]*queue.Queue
	units    map[int][]*Unit // VO index -> entry units
	groupOf  []int           // VO index -> executor group
	execs    []*Exec
	execOf   map[int]*Exec       // executor group -> executor
	adapters map[int]*srcAdapter // source node ID -> adapter

	// spliceGid is the goroutine id of a live mutation in progress
	// (0 otherwise); the wait hooks let that goroutine push past queue
	// bounds instead of parking, since every executor is halted during
	// the splice and nothing could free space.
	spliceGid atomic.Int64

	// wireGen counts rewireTargets passes (written under world.Lock, read
	// under world.RLock). A source that yielded its read lock around a
	// contended gate wait compares it afterwards to detect that a splice
	// rewired its targets while it waited (see srcAdapter.lockTarget).
	wireGen uint64

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

// srcTarget is one resolved output edge of a source. key names the graph
// edge it resolves, so a delivery that raced a splice can find the same
// edge's fresh placement (or learn the edge is gone) in the rebuilt list.
type srcTarget struct {
	sink op.Sink
	port int
	gate *Gate
	key  graph.EdgeKey
}

// srcAdapter is the Sink handed to a source's Run; it fans elements out to
// the source's resolved targets under the world read-lock so a live
// mutation can rewire safely.
type srcAdapter struct {
	d        *Deployment
	targets  []srcTarget
	finished atomic.Bool
	// ended holds the edges the source's Done has gone (or is going)
	// down (written under the world read lock, read by mutations under
	// the write lock). A source can finish while parked on a gate
	// mid-fan-out; a mutation that re-places one of its edges then needs
	// to know whether that edge's Done is behind it or still to come.
	ended map[graph.EdgeKey]bool
}

// lockTarget returns the snapshot's i'th target with its VO gate (if any)
// held. The snapshot (ts, gen) was taken under the world read lock at the
// start of the fan-out; a splice that ran while an earlier delivery was
// parked on downstream backpressure (read lock yielded) may have rebuilt
// a.targets since — including adding or removing source out-edges, so
// indexes do not survive a rewire. When gen is stale the entry's graph
// edge is re-resolved by key against the fresh list; a missing edge was
// spliced out (its query dropped mid-element) and nil is returned so the
// caller skips the delivery.
//
// A contended gate is acquired cooperatively: the holder may itself be
// parked on downstream backpressure with its world read lock yielded —
// wakeable only by space or poison — so blocking on the gate while still
// holding our own read lock would wedge a pending splice (its world.Lock
// waits behind us, every executor is already halted, and nothing left
// could free the space). The read lock is yielded around the wait and
// retaken after; that inverted reacquisition (gate, then read lock)
// cannot deadlock because the only world writer never takes gates. If a
// splice rewired the sources while we waited, the acquired gate belongs
// to a stale target — the edge may have gained a queue, the VO's gate may
// have been replaced — so it is dropped and the edge re-resolved.
func (a *srcAdapter) lockTarget(ts []srcTarget, gen uint64, i int) *srcTarget {
	for {
		if a.d.wireGen != gen {
			key := ts[i].key
			ts, gen = a.targets, a.d.wireGen
			i = -1
			for j := range ts {
				if ts[j].key == key {
					i = j
					break
				}
			}
			if i < 0 {
				return nil
			}
		}
		t := &ts[i]
		if t.gate == nil || t.gate.TryLock() {
			return t
		}
		a.d.world.RUnlock()
		t.gate.Lock()
		a.d.world.RLock()
		if a.d.wireGen == gen {
			return t
		}
		t.gate.Unlock()
	}
}

// ProcessBatch implements op.Sink: a source hands its ready elements over
// in one call (a batch of one when only one is ready), and each target —
// notably the decoupling queue — receives the batch under a single lock
// acquisition instead of one per element. Locks are released via defer so
// that a panicking operator cannot leak the world lock or a VO gate.
func (a *srcAdapter) ProcessBatch(_ int, es []stream.Element) {
	a.d.world.RLock()
	defer a.d.world.RUnlock()
	ts, gen := a.targets, a.d.wireGen
	for i := range ts {
		a.deliverBatchTo(ts, gen, i, es)
	}
}

func (a *srcAdapter) deliverBatchTo(ts []srcTarget, gen uint64, i int, es []stream.Element) {
	t := a.lockTarget(ts, gen, i)
	if t == nil {
		return // edge spliced out while parked: the elements have no destination
	}
	if t.gate != nil {
		defer t.gate.Unlock()
	}
	t.sink.ProcessBatch(t.port, es)
}

// Done implements op.Sink.
func (a *srcAdapter) Done(int) {
	a.d.world.RLock()
	defer a.d.world.RUnlock()
	a.finished.Store(true)
	ts, gen := a.targets, a.d.wireGen
	for i := range ts {
		a.doneTo(ts, gen, i)
	}
}

func (a *srcAdapter) doneTo(ts []srcTarget, gen uint64, i int) {
	t := a.lockTarget(ts, gen, i)
	if t == nil {
		return
	}
	if t.gate != nil {
		defer t.gate.Unlock()
	}
	a.ended[t.key] = true // before delivery, which may park and yield
	t.sink.Done(t.port)
}

// Build validates the graph against the plan and constructs a deployment.
// Nothing runs until Start.
func Build(g *graph.Graph, plan Plan, opts Options) (*Deployment, error) {
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
		queues:   make(map[graph.EdgeKey]*queue.Queue),
		adapters: make(map[int]*srcAdapter),
	}
	if opts.TS != nil {
		maxc := opts.TS.MaxConcurrent
		if maxc < 1 {
			maxc = runtime.GOMAXPROCS(0)
		}
		age := opts.TS.AgePerMS
		if age == 0 {
			age = 1
		}
		d.ts = NewTS(maxc, age)
	}
	if err := d.analyze(plan.Groups, plan.SingleGroup); err != nil {
		return nil, err
	}
	d.wire()
	d.buildExecs()
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
	return comps, voOf, groupOf, nil
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
	d.gates = make([]*Gate, len(d.comps))
	for vi := range d.comps {
		if nSrc[vi] >= 2 || (nSrc[vi] >= 1 && hasEntry[vi]) {
			d.gates[vi] = NewGate()
		}
	}
	return nil
}

// wire creates queues on cut edges and subscribes every edge, building the
// source adapters along the way.
func (d *Deployment) wire() {
	steep, pos := chainMeta(d.g)
	d.units = make(map[int][]*Unit)
	for _, n := range d.g.Sources() {
		d.adapters[n.ID] = &srcAdapter{d: d, ended: make(map[graph.EdgeKey]bool)}
	}
	for _, e := range d.g.Edges() {
		from, to := d.g.Node(e.From), d.g.Node(e.To)
		var target op.Sink
		var tport int
		if d.cut[e.Key()] {
			q := queue.New(fmt.Sprintf("q(%s->%s)", from.Name, to.Name), d.opts.QueueBound)
			d.queues[e.Key()] = q
			q.Subscribe(to.Op, e.ToPort)
			vi := d.voOf[e.To]
			d.units[vi] = append(d.units[vi], &Unit{
				Q:         q,
				Gate:      d.gates[vi],
				Steepness: steep[e.To],
				SegPos:    pos[e.To],
			})
			target, tport = q, 0
		} else {
			tport = e.ToPort
			switch to.Kind {
			case graph.KindSink:
				target = to.Sink
			default:
				target = to.Op
			}
		}
		switch from.Kind {
		case graph.KindSource:
			var gate *Gate
			if !d.cut[e.Key()] && to.Kind != graph.KindSink {
				gate = d.gates[d.voOf[e.To]]
			}
			a := d.adapters[from.ID]
			a.targets = append(a.targets, srcTarget{sink: target, port: tport, gate: gate, key: e.Key()})
		default:
			if sh, ok := d.g.SplitEdgeShard(e); ok {
				from.Op.(*op.Split).SubscribeShard(sh, e.ToPort, target, tport)
			} else {
				from.Op.Subscribe(target, tport)
			}
		}
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
	d.execOf = make(map[int]*Exec, len(groups))
	for _, gi := range groups {
		us := byGroup[gi]
		sort.Slice(us, func(i, j int) bool { return us[i].Q.Name() < us[j].Q.Name() })
		prio := d.opts.Priority[gi]
		x := newExec(fmt.Sprintf("exec-g%d", gi), us, d.opts.strategyFor(gi), d.opts.batch(), d.opts.quantum(), d.ts, prio, &d.world, d.fail)
		d.execs = append(d.execs, x)
		d.execOf[gi] = x
	}
	d.wireHooks()
}

// wireHooks installs a cooperative-blocking hook on every decoupling
// queue, bound to the queue's producing side: the executor of the group
// that drains the producing partition when there is one, otherwise the
// source goroutines pushing directly (see coop.go). Re-run after every
// buildExecs — group assignments move under every live mutation. A
// producer already parked keeps the hook it yielded through (the queue
// snapshots it per park); old executors stay valid resume targets.
func (d *Deployment) wireHooks() {
	for k, q := range d.queues {
		var x *Exec
		if from := d.g.Node(k.From); from.Kind != graph.KindSource {
			x = d.execOf[d.groupOf[d.voOf[k.From]]]
		}
		q.SetWaitHook(&pushHook{d: d, x: x})
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
// so producers blocked on backpressure are released, and executors halt
// after their current batch. Queued elements may remain unprocessed or be
// dropped.
func (d *Deployment) Stop() {
	if d.stopped.Swap(true) {
		return
	}
	d.admin.Lock()
	defer d.admin.Unlock()
	for _, n := range d.g.Sources() {
		n.Src.Stop()
	}
	for _, q := range d.queues {
		q.Poison()
	}
	for _, x := range d.execs {
		x.halt()
	}
	d.srcWG.Wait()
}

// Queues returns the live decoupling queues in deterministic order; the
// experiment harness attaches its memory sampler to them.
func (d *Deployment) Queues() []*queue.Queue {
	d.admin.Lock()
	defer d.admin.Unlock()
	keys := make([]graph.EdgeKey, 0, len(d.queues))
	for k := range d.queues {
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
		out[i] = d.queues[k]
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
	return d.queues[k]
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
