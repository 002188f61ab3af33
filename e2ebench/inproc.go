package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	hmts "github.com/dsms/hmts"
)

// Engine settings shared by the workloads: HMTS with bounded queues and a
// bounded Block-policy ingress, so overload turns into backpressure on the
// producer and never into loss. The queue bound is deep enough that the
// scheduler's worst stalls seen at the open-loop rates (tens of ms) do not
// fill a queue, so live mutations do not meet a source parked on a full
// queue (see NOTES.md on the defect that combination triggers).
const (
	queueBound    = 8192
	ingressBuffer = 8192
	ingressBatch  = 256
	pushBatch     = 256 // elements per PushBatch in closed-loop phases
)

// deployment is one engine, built, deployed and ready for input.
type deployment struct {
	eng   *hmts.Engine
	ext   *hmts.ExternalSource
	src   *hmts.Stream
	sinks []*sink // checked against scenario.expect, in that order
	timed []*sink // sinks whose results are latency samples
	runNS int64   // Engine.Run wall time
}

// scenario is one in-process workload.
type scenario struct {
	in             input
	rateHint       float64 // planning hint, the same in every phase so the plan is too
	capN           int     // elements per closed-loop capacity round
	loRate, hiRate int     // open-loop rates, elements per second
	setups         int     // set-ups behind the setup_s median, spread over the cycles
	// graph adds the workload's queries to eng over src and returns the
	// checked sinks and the timed ones.
	graph func(r *run, eng *hmts.Engine, src *hmts.Stream, in input) (sinks, timed []*sink, err error)
	// expect returns the reference digest of each checked sink for the
	// first n elements of in.
	expect func(in input, n int) []digest
	// mutate, when set, runs live mutations against d until stop closes.
	mutate func(r *run, d *deployment, stop <-chan struct{}, m *mutations)
}

// deploy builds a fresh engine for the scenario and starts it.
func (r *run) deploy(sc *scenario, in input) (*deployment, error) {
	eng := hmts.New()
	ext := hmts.External("in", hmts.ExternalConfig{Policy: hmts.Block, Buffer: ingressBuffer, Batch: ingressBatch, RateHint: sc.rateHint})
	src := eng.Source("in", ext.Spec())
	sinks, timed, err := sc.graph(r, eng, src, in)
	if err != nil {
		return nil, err
	}
	t0 := now()
	err = eng.Run(hmts.RunConfig{Mode: hmts.ModeHMTS, QueueBound: queueBound})
	t1 := now()
	r.tr.record(spanRun, t0, t1)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	return &deployment{eng: eng, ext: ext, src: src, sinks: sinks, timed: timed, runNS: t1 - t0}, nil
}

// finish drains d after its input is complete and checks every sink
// against the reference and the engine for a fail-stop.
func (r *run) finish(d *deployment, want []digest, phase string) {
	d.ext.Close()
	d.eng.Wait()
	st := d.ext.Stats()
	r.accepted += st.Accepted
	r.dropped += st.Dropped
	r.checkEngine(d.eng, phase)
	for i, s := range d.sinks {
		got, _, _ := s.snapshot()
		r.checkDigest(fmt.Sprintf("%s sink %d", phase, i), got, want[i])
	}
}

func (r *run) checkEngine(eng *hmts.Engine, phase string) {
	if err := eng.Err(); err != nil {
		r.fail(1, "%s: engine fail-stop: %v", phase, err)
	}
}

// checkDigest counts each missing or extra result as one failed
// operation, and a same-size result set with the wrong contents as one.
func (r *run) checkDigest(what string, got, want digest) {
	switch {
	case got.n != want.n:
		diff := int64(want.n) - int64(got.n)
		if diff < 0 {
			diff = -diff
		}
		r.fail(diff, "%s: %d results, reference has %d", what, got.n, want.n)
	case got.sum != want.sum:
		r.fail(1, "%s: result checksum differs from the reference", what)
	}
}

// lastDelivery returns when the last result reached any sink of d.
func lastDelivery(d *deployment) int64 {
	var last int64
	for _, s := range d.sinks {
		_, _, t := s.snapshot()
		last = max(last, t)
	}
	return last
}

// inproc runs a scenario in this process; it implements phases.
type inproc struct {
	r       *run
	sc      *scenario
	capIn   input    // the input capWant was computed for
	capWant []digest // reference of the capacity rounds, computed once
	runs    []float64
}

// runInProc runs the common schedule over an in-process scenario.
func (r *run) runInProc(sc *scenario) {
	r.measure(&inproc{r: r, sc: sc}, sc.in, sc.loRate, sc.hiRate)
}

// setup times set-ups from engine construction, through registering every
// query and Run, until the external source accepts input.
func (p *inproc) setup() []float64 {
	r, sc := p.r, p.sc
	var ts []float64
	for i := 0; i < sc.setups/cycles; i++ {
		t0 := now()
		d, err := r.deploy(sc, sc.in)
		t1 := now()
		r.attempted++
		if err != nil {
			r.fail(1, "setup: %v", err)
			return ts
		}
		ts = append(ts, float64(t1-t0)/1e9)
		p.runs = append(p.runs, float64(d.runNS)/1e3)
		d.eng.Stop()
		d.eng.Wait()
	}
	return ts
}

// capacity pushes sc.capN elements per round as fast as Block
// backpressure admits them and times each round from the first push to
// the last result.
func (p *inproc) capacity(in input, procs int, budget time.Duration) (rounds []round) {
	r, sc := p.r, p.sc
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	if p.capWant == nil || p.capIn != in {
		p.capIn, p.capWant = in, sc.expect(in, sc.capN)
	}
	batch := make([]hmts.Element, pushBatch)
	for start, i := now(), 0; i == 0 || now()-start < int64(budget); i++ {
		d, err := r.deploy(sc, in)
		if err != nil {
			r.fail(1, "capacity: %v", err)
			return rounds
		}
		runtime.GC()
		poll := r.poll(d.eng)
		r.tr.beginPhase()
		var busy0 int64
		if r.tr != nil {
			busy0 = r.tr.busy(spanPush, spanSink)
		}
		steal := startSteal()
		c0 := selfCPU()
		t0 := now()
		var pushNS int64
		for i := 0; i < sc.capN; i += pushBatch {
			b := batch[:min(pushBatch, sc.capN-i)]
			in.fill(b, i)
			p0 := now()
			d.ext.PushBatch(b)
			if r.tr != nil {
				p1 := now()
				r.tr.record(spanPush, p0, p1)
				pushNS += p1 - p0
			}
		}
		d.ext.Close()
		d.eng.Wait()
		last := lastDelivery(d)
		c1 := selfCPU()
		stolen := steal.stop()
		r.tr.endPhase()
		poll()
		r.attempted += int64(sc.capN)
		phase := fmt.Sprintf("capacity round at %d procs", procs)
		if last > t0 {
			rounds = append(rounds, round{rate: float64(sc.capN) / (float64(last-t0) / 1e9), steal: stolen, cpu: c1 - c0, elems: int64(sc.capN)})
		} else {
			r.fail(1, "%s: no result delivered", phase)
		}
		r.finish(d, p.capWant, phase)
		if r.tr != nil && procs == r.nproc {
			r.layer["ingest.push_ns_per_elem"] = float64(pushNS) / float64(sc.capN)
			r.layer["trace.cpu_attributed_share"] = float64(r.tr.busy(spanPush, spanSink)-busy0) / float64(c1-c0)
			r.engineLayers(d, sc.capN)
		}
		d.eng.Stop()
	}
	return rounds
}

// latency deploys the scenario for an open-loop phase at rate elements
// per second. Every 1 ms tick the generator pushes rate/1000 elements in
// one PushBatch, stamping the tick just before the call. Results are timed
// from that admission stamp, so generator lateness — reported separately
// as gen.* — never enters the latency figure.
func (p *inproc) latency(in input, rate, slices, perSlice int) latencyPhase {
	perTick := rate / 1000
	l := &inprocLatency{p: p, in: in, rate: rate, perTick: perTick, stamps: newStampLog(slices, perSlice, perTick)}
	d, err := p.r.deploy(p.sc, in)
	if err != nil {
		p.r.fail(1, "latency at %d/s: %v", rate, err)
		return l
	}
	for _, s := range d.timed {
		s.time(l.stamps)
	}
	l.d = d
	return l
}

type inprocLatency struct {
	p       *inproc
	d       *deployment // nil after a failed deploy
	in      input
	rate    int
	perTick int
	stamps  *stampLog
	next    int // next tick
	muts    mutations
}

// push runs one slice of the open loop, with the scenario's live
// mutations running alongside.
func (l *inprocLatency) push() float64 {
	r, sc, d := l.p.r, l.p.sc, l.d
	ticks := min(l.stamps.perSlice, len(l.stamps.t)-l.next)
	if d == nil || ticks <= 0 {
		return 0
	}
	poll := r.poll(d.eng)
	stopMut := make(chan struct{})
	var wg sync.WaitGroup
	if sc.mutate != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc.mutate(r, d, stopMut, &l.muts)
		}()
	}
	r.tr.beginPhase()
	steal := startSteal()
	r.openLoop(l.next, ticks, l.perTick, true, func(k int, batch []hmts.Element) {
		l.in.fill(batch, k*l.perTick)
		t := now()
		l.stamps.t[k].Store(t)
		d.ext.PushBatch(batch)
		r.tr.record(spanPush, t, now())
	})
	stolen := steal.stop()
	close(stopMut)
	wg.Wait()
	r.tr.endPhase()
	poll()
	l.next += ticks
	return stolen
}

func (l *inprocLatency) finish() []Hist {
	r, d := l.p.r, l.d
	if d == nil {
		return nil
	}
	n := l.next * l.perTick
	r.attempted += int64(n)
	r.finish(d, l.p.sc.expect(l.in, n), fmt.Sprintf("latency at %d/s", l.rate))
	r.addMutations(&l.muts)
	d.eng.Stop()
	return l.stamps.slices()
}

func (p *inproc) peakRSS() (int64, error) { return peakRSS(0) }

func (p *inproc) traced() {
	r := p.r
	r.layer["plan.run_us"] = median(p.runs)
	if pl := r.e2e["lat_hi_p50_us"] * 1e3; pl > 0 {
		r.layer["trace.lat_attributed_share"] = (r.tr.p50(spanPush) + r.tr.p50(spanSink)) / pl
	}
	r.polledLayers()
}

// openLoop calls push for ticks first, first+1, ... once per 1 ms, on
// schedule regardless of how long earlier pushes took, and records how
// late each tick ran. With spin, it waits for the next tick by yielding
// to other goroutines instead of sleeping, so the CPU it shares with an
// in-process engine never goes idle: a virtual CPU woken from idle by the
// tick ran the engine's first microseconds cold, and by how much depended
// on the machine's other tenants.
func (r *run) openLoop(first, ticks, perTick int, spin bool, push func(k int, batch []hmts.Element)) {
	batch := make([]hmts.Element, perTick)
	t0 := now()
	for k := 0; k < ticks; k++ {
		due := t0 + int64(k)*int64(time.Millisecond)
		if spin {
			for now() < due {
				runtime.Gosched()
			}
		} else if w := due - now(); w > 0 {
			time.Sleep(time.Duration(w))
		}
		r.genLate.Record(now() - due)
		push(first+k, batch)
	}
	r.layer["gen.sent"] += float64(ticks * perTick)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
