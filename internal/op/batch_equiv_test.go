package op

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/stats"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/xrand"
)

// The batch-size invariance harness: every operator is driven twice with an
// identical element sequence — once with every element as its own batch of
// one (the reference), once with the sequence cut into same-port batches of
// 1..maxB elements (batches never span ports, per the Sink contract) — and
// must produce byte-identical outputs on every downstream edge, identical
// Done propagation, and identical In/Out stats counters. The cut comes from
// a byte pattern, so FuzzBatchSplit can search for a cut that breaks it.

// portedElem is one input event: which port it arrives on and the element.
type portedElem struct {
	port int
	e    stream.Element
}

// captureSink records everything delivered to it.
type captureSink struct {
	got   []stream.Element
	dones int
}

func (c *captureSink) ProcessBatch(_ int, es []stream.Element) { c.got = append(c.got, es...) }
func (c *captureSink) Done(int)                                { c.dones++ }

// genSeq produces n events with nondecreasing event time over the given
// port count. disorder adds bounded timestamp jitter (for Reorder).
func genSeq(rng *xrand.Rand, n, ports int, disorder bool) []portedElem {
	seq := make([]portedElem, n)
	var ts int64
	for i := range seq {
		ts += rng.Int64n(40)
		e := stream.Element{TS: ts, Key: rng.Int64n(16), Val: float64(rng.Int64n(100))}
		if disorder {
			e.TS += rng.Int64n(120) - 60
			if e.TS < 0 {
				e.TS = 0
			}
		}
		if rng.Int64n(8) == 0 {
			e.Aux = i
		}
		seq[i] = portedElem{port: int(rng.Int64n(int64(ports))), e: e}
	}
	return seq
}

// splitPattern draws the byte pattern the harness cuts sequences with.
func splitPattern(rng *xrand.Rand) []byte {
	p := make([]byte, 97) // prime, so the cut does not repeat in step with ports
	for i := range p {
		p[i] = byte(rng.Int64n(256))
	}
	return p
}

// driveOnes feeds every event as its own batch of one, in order.
func driveOnes(s Sink, seq []portedElem) {
	driveSplit(s, seq, nil, 1)
}

// driveSplit feeds the events as batches: maximal same-port runs are cut
// into batches whose sizes cycle through pattern, byte b asking for
// b%maxB+1 elements. An empty pattern cuts batches of one.
func driveSplit(s Sink, seq []portedElem, pattern []byte, maxB int) {
	buf := make([]stream.Element, 0, maxB)
	for i, k := 0, 0; i < len(seq); k++ {
		want := 1
		if len(pattern) > 0 {
			want = int(pattern[k%len(pattern)])%maxB + 1
		}
		j := i + 1
		for j < len(seq) && j-i < want && seq[j].port == seq[i].port {
			j++
		}
		buf = buf[:0]
		for _, pe := range seq[i:j] {
			buf = append(buf, pe.e)
		}
		s.ProcessBatch(seq[i].port, buf)
		i = j
	}
}

// equivCase builds one operator instance per invocation so the reference
// and the batched runs start from identical state. A case with branches > 0
// builds a *Split and captures each shard separately.
type equivCase struct {
	name     string
	ports    int
	disorder bool
	branches int
	mk       func() Operator
}

func equivCases() []equivCase {
	w := int64(500)
	return []equivCase{
		{name: "filter", ports: 1, mk: func() Operator {
			return NewFilter("f", func(e stream.Element) bool { return e.Key%3 != 0 })
		}},
		{name: "map", ports: 1, mk: func() Operator {
			return NewMap("m", func(e stream.Element) stream.Element { e.Val *= 2; e.Key++; return e })
		}},
		{name: "sample", ports: 1, mk: func() Operator { return NewSample("s", 0.5, 7) }},
		{name: "union", ports: 2, mk: func() Operator { return NewUnion("u", 2) }},
		{name: "throttle", ports: 1, mk: func() Operator { return NewThrottle("t", 5e7, 4) }},
		{name: "costsim", ports: 1, mk: func() Operator {
			return NewCostSim("c", 0, func(e stream.Element) bool { return e.Key%2 == 0 })
		}},
		{name: "agg-sum-time", ports: 1, mk: func() Operator { return NewWindowAgg("a", AggSum, w, nil) }},
		{name: "agg-avg-time-grouped", ports: 1, mk: func() Operator {
			return NewWindowAgg("a", AggAvg, w, func(e stream.Element) int64 { return e.Key % 4 })
		}},
		{name: "agg-min-time-grouped", ports: 1, mk: func() Operator {
			return NewWindowAgg("a", AggMin, w, func(e stream.Element) int64 { return e.Key % 4 })
		}},
		{name: "agg-max-time", ports: 1, mk: func() Operator { return NewWindowAgg("a", AggMax, w, nil) }},
		{name: "agg-count-rows-grouped", ports: 1, mk: func() Operator {
			return NewCountWindowAgg("a", AggCount, 5, func(e stream.Element) int64 { return e.Key % 4 })
		}},
		{name: "distinct", ports: 1, mk: func() Operator { return NewDistinct("d", w) }},
		{name: "topk", ports: 1, mk: func() Operator { return NewTopK("t", 3, w) }},
		{name: "shj", ports: 2, mk: func() Operator { return NewSHJ("j", w, nil) }},
		{name: "snj", ports: 2, mk: func() Operator {
			return NewSNJ("j", w, func(l, r stream.Element) bool { return l.Key == r.Key }, nil)
		}},
		{name: "mjoin3", ports: 3, mk: func() Operator { return NewMJoin("j", 3, w, nil) }},
		{name: "reorder", ports: 1, disorder: true, mk: func() Operator { return NewReorder("r", 200) }},
	}
}

// splitCases covers the shard splitter: its outputs fan across shards, so
// invariance is checked per shard, Seq stamps included.
func splitCases() []equivCase {
	key := func(_ int, e stream.Element) int64 { return e.Key }
	var cs []equivCase
	for _, shards := range []int{2, 3} {
		shards := shards
		cs = append(cs, equivCase{
			name: fmt.Sprintf("split-%d", shards), ports: 1, branches: shards,
			mk: func() Operator { return NewSplit("sp", 1, shards, key) },
		})
	}
	return cs
}

// equivRun is what one drive of a case produced: each output edge's
// elements and Done count, and the operator's In/Out counters.
type equivRun struct {
	caps    []*captureSink
	in, out uint64
}

// run drives a fresh instance of tc with seq cut by pattern (nil: batches
// of one) and closes every input port.
func (tc equivCase) run(seq []portedElem, pattern []byte, maxB int) equivRun {
	o := tc.mk()
	var caps []*captureSink
	if tc.branches > 0 {
		for i := 0; i < tc.branches; i++ {
			caps = append(caps, &captureSink{})
			o.(*Split).SubscribeShard(i, 0, caps[i], 0)
		}
	} else {
		caps = []*captureSink{{}}
		o.Subscribe(caps[0], 0)
	}
	driveSplit(o, seq, pattern, maxB)
	for p := 0; p < tc.ports; p++ {
		o.Done(p)
	}
	return equivRun{caps: caps, in: o.Stats().In(), out: o.Stats().Out()}
}

// checkInvariance runs tc once with batches of one and once cut by
// pattern, and fails t on any difference.
func checkInvariance(t *testing.T, tc equivCase, seq []portedElem, pattern []byte, maxB int) {
	t.Helper()
	ref, got := tc.run(seq, nil, 1), tc.run(seq, pattern, maxB)
	var emitted int
	for i := range ref.caps {
		r, g := ref.caps[i], got.caps[i]
		if !reflect.DeepEqual(r.got, g.got) {
			t.Fatalf("%s edge %d: outputs diverge: batches of one %d elements, split %d\nones:  %v\nsplit: %v",
				tc.name, i, len(r.got), len(g.got), trunc(r.got), trunc(g.got))
		}
		if r.dones != 1 || g.dones != 1 {
			t.Fatalf("%s edge %d: Done propagation diverges: batches of one %d, split %d", tc.name, i, r.dones, g.dones)
		}
		emitted += len(r.got)
	}
	if ref.in != got.in || ref.in != uint64(len(seq)) {
		t.Fatalf("%s: In counters diverge: batches of one %d, split %d, want %d", tc.name, ref.in, got.in, len(seq))
	}
	if ref.out != got.out || ref.out != uint64(emitted) {
		t.Fatalf("%s: Out counters diverge: batches of one %d, split %d, want %d", tc.name, ref.out, got.out, emitted)
	}
}

func TestBatchScalarEquivalence(t *testing.T) {
	for _, tc := range equivCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				seq := genSeq(xrand.New(seed), 400, tc.ports, tc.disorder)
				checkInvariance(t, tc, seq, splitPattern(xrand.New(seed+100)), 33)
			}
		})
	}
}

func trunc(es []stream.Element) string {
	if len(es) > 12 {
		return fmt.Sprintf("%v… (+%d)", es[:12], len(es)-12)
	}
	return fmt.Sprint(es)
}

// TestBatchScalarEquivalenceSplit covers the shard splitter separately:
// its outputs fan across shards, so invariance is per shard.
func TestBatchScalarEquivalenceSplit(t *testing.T) {
	for _, tc := range splitCases() {
		for seed := uint64(1); seed <= 5; seed++ {
			seq := genSeq(xrand.New(seed), 400, 1, false)
			checkInvariance(t, tc, seq, splitPattern(xrand.New(seed+100)), 33)
		}
	}
}

// FuzzBatchSplit is the invariance harness with the cut taken from fuzz
// bytes: sel picks the operator (sel mod the case count) and the seed of
// its element sequence (sel div the case count), and that sequence must
// yield the same outputs, Done propagation and counters whether each
// element arrives alone or the sequence is cut as pattern says. The seed
// corpus is exactly the harness's cases: every operator, seeds 1..5.
func FuzzBatchSplit(f *testing.F) {
	cases := append(equivCases(), splitCases()...)
	n := uint64(len(cases))
	for seed := uint64(1); seed <= 5; seed++ {
		for i := range cases {
			f.Add(seed*n+uint64(i), splitPattern(xrand.New(seed+100)))
		}
	}
	f.Fuzz(func(t *testing.T, sel uint64, pattern []byte) {
		tc := cases[sel%n]
		seq := genSeq(xrand.New(sel/n), 400, tc.ports, tc.disorder)
		checkInvariance(t, tc, seq, pattern, 33)
	})
}

// TestBatchEquivalenceThroughChain drives a fused DI chain end to end —
// split batches entering the head must yield the same sink sequence as
// batches of one, including across the fan-out hops.
func TestBatchEquivalenceThroughChain(t *testing.T) {
	build := func() (head *Filter, cap1, cap2 *captureSink) {
		head = NewFilter("f", func(e stream.Element) bool { return e.Key%5 != 0 })
		m := NewMap("m", func(e stream.Element) stream.Element { e.Val++; return e })
		a := NewWindowAgg("a", AggMax, 300, func(e stream.Element) int64 { return e.Key % 3 })
		head.Subscribe(m, 0)
		m.Subscribe(a, 0)
		cap1, cap2 = &captureSink{}, &captureSink{}
		a.Subscribe(cap1, 0)
		a.Subscribe(cap2, 0) // sibling edge: must see the identical stream
		return head, cap1, cap2
	}
	for seed := uint64(1); seed <= 3; seed++ {
		seq := genSeq(xrand.New(seed), 500, 1, false)
		sh, sc1, sc2 := build()
		driveOnes(sh, seq)
		sh.Done(0)
		bh, bc1, bc2 := build()
		driveSplit(bh, seq, splitPattern(xrand.New(seed+100)), 64)
		bh.Done(0)
		if !reflect.DeepEqual(sc1.got, bc1.got) || !reflect.DeepEqual(sc2.got, bc2.got) {
			t.Fatalf("seed %d: chain outputs diverge (batches of one %d, split %d)", seed, len(sc1.got), len(bc1.got))
		}
		if !reflect.DeepEqual(bc1.got, bc2.got) {
			t.Fatalf("seed %d: sibling fan-out edges diverge", seed)
		}
		if sc1.dones != 1 || bc1.dones != 1 {
			t.Fatalf("seed %d: Done diverges", seed)
		}
	}
}

// TestBatchMeteringFeedsEstimators checks the batch path still converges
// the c(v)/d(v) estimators that placement and adapt consume: after a
// batched run both must be nonzero, and d(v) must reflect the stream's
// event-time spacing (one observation per batch, mean-gap semantics).
func TestBatchMeteringFeedsEstimators(t *testing.T) {
	f := NewCostSim("c", int64(2*time.Microsecond), nil)
	f.Subscribe(NewNull(1), 0)
	const gap, batch, batches = 1000, 32, 40
	buf := make([]stream.Element, batch)
	var ts int64
	for b := 0; b < batches; b++ {
		for i := range buf {
			ts += gap
			buf[i] = stream.Element{TS: ts, Key: int64(i)}
		}
		f.ProcessBatch(0, buf)
	}
	st := f.Stats()
	if st.In() != batch*batches {
		t.Fatalf("In = %d, want %d", st.In(), batch*batches)
	}
	if st.CostNS() <= 0 {
		t.Fatalf("CostNS = %v, want > 0 (sampled batch metering must fire)", st.CostNS())
	}
	if d := st.InterarrivalNS(); d < gap*0.5 || d > gap*1.5 {
		t.Fatalf("InterarrivalNS = %v, want ≈ %d", d, gap)
	}
}

// TestMeteringCountsElements pins the sampling rule: a batch is metered
// once meterEvery elements have arrived since the last metered one, so
// batches of one are metered one in meterEvery, and a batch of meterEvery
// every time.
func TestMeteringCountsElements(t *testing.T) {
	f := NewCostSim("c", int64(time.Microsecond), nil)
	f.Subscribe(NewNull(1), 0)
	one := make([]stream.Element, 1)
	for i := 1; i < meterEvery; i++ {
		f.ProcessBatch(0, one)
	}
	if c := f.Stats().CostNS(); c != 0 {
		t.Fatalf("CostNS = %v after %d batches of one, want 0 (none metered yet)", c, meterEvery-1)
	}
	f.ProcessBatch(0, one)
	first := f.Stats().CostNS()
	if first <= 0 {
		t.Fatalf("CostNS = %v after %d batches of one, want > 0", first, meterEvery)
	}
	f.SetCost(int64(100 * time.Microsecond))
	f.ProcessBatch(0, make([]stream.Element, meterEvery))
	if f.Stats().CostNS() <= first {
		t.Fatal("a batch of meterEvery elements must be metered")
	}
}

// TestMeteringFirstBatchSeedsInterarrival pins d(v): the first metered
// batch seeds it from the mean gap inside the batch, and each later one
// observes the mean gap since the previous metered batch's last element,
// over every element that arrived in between.
func TestMeteringFirstBatchSeedsInterarrival(t *testing.T) {
	m := NewMap("m", func(e stream.Element) stream.Element { return e })
	var ts int64
	batch := func(n int, gap int64) []stream.Element {
		es := make([]stream.Element, n)
		for i := range es {
			ts += gap
			es[i].TS = ts
		}
		return es
	}
	m.ProcessBatch(0, batch(meterEvery, 100))
	if d := m.Stats().InterarrivalNS(); d != 100 {
		t.Fatalf("intra-batch seed %v, want 100", d)
	}
	for i := 0; i < meterEvery; i++ {
		m.ProcessBatch(0, batch(1, 300)) // the last of these is metered
	}
	var ref stats.OpStats // the samples d(v) must have folded in
	ref.ObserveInterarrival(100)
	ref.ObserveInterarrival(300)
	if d, want := m.Stats().InterarrivalNS(), ref.InterarrivalNS(); d != want {
		t.Fatalf("gap since previous metered batch: d(v) = %v, want %v", d, want)
	}
	if m.Stats().In() != 2*meterEvery {
		t.Fatalf("In = %d, want %d", m.Stats().In(), 2*meterEvery)
	}
}

// TestMeteringExcludesDownstream pins c(v) as the operator's own time: a
// cheap operator fused in front of an expensive one must not be charged
// for it.
func TestMeteringExcludesDownstream(t *testing.T) {
	const cheap, costly = time.Microsecond, 100 * time.Microsecond
	head := NewCostSim("head", int64(cheap), nil)
	tail := NewCostSim("tail", int64(costly), nil)
	head.Subscribe(tail, 0)
	tail.Subscribe(NewNull(1), 0)
	es := make([]stream.Element, meterEvery)
	for i := 0; i < 10; i++ {
		head.ProcessBatch(0, es)
	}
	h, tl := head.Stats().CostNS(), tail.Stats().CostNS()
	if h < float64(cheap) || tl < float64(costly) {
		t.Fatalf("c(head) = %v, c(tail) = %v, want at least %v and %v", h, tl, cheap, costly)
	}
	if h > float64(costly)/5 {
		t.Fatalf("c(head) = %v includes the fused tail (own cost %v, tail %v)", h, cheap, tl)
	}
}
