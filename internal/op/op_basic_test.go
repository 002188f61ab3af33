package op

import (
	"sync"
	"testing"

	"github.com/dsms/hmts/internal/ring"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/testutil"
)

// push feeds elements into a sink on port 0 and closes it.
func push(s Sink, els ...stream.Element) {
	for _, e := range els {
		testutil.Push(s, 0, e)
	}
	s.Done(0)
}

// seq builds n elements with Key = i, TS = i·step.
func seq(n int, step int64) []stream.Element {
	out := make([]stream.Element, n)
	for i := range out {
		out[i] = stream.Element{TS: int64(i) * step, Key: int64(i), Val: 1}
	}
	return out
}

func TestFilterSelect(t *testing.T) {
	f := NewFilter("f", func(e stream.Element) bool { return e.Key%3 == 0 })
	c := NewCollector(1)
	f.Subscribe(c, 0)
	push(f, seq(30, 1)...)
	c.Wait()
	if c.Len() != 10 {
		t.Fatalf("got %d, want 10", c.Len())
	}
	for _, e := range c.Elements() {
		if e.Key%3 != 0 {
			t.Fatalf("leaked %v", e)
		}
	}
	st := f.Stats()
	if st.In() != 30 || st.Out() != 10 {
		t.Fatalf("stats in=%d out=%d", st.In(), st.Out())
	}
}

func TestKeyModFilterNegativeKeys(t *testing.T) {
	f := NewKeyModFilter("f", 10, 3)
	c := NewCollector(1)
	f.Subscribe(c, 0)
	push(f,
		stream.Element{Key: -10}, // -10 % 10 = 0 -> pass
		stream.Element{Key: -7},  // normalized 3 -> reject
		stream.Element{Key: -9},  // normalized 1 -> pass
		stream.Element{Key: 12},  // 2 -> pass
		stream.Element{Key: 5},   // reject
	)
	c.Wait()
	if c.Len() != 3 {
		t.Fatalf("got %d, want 3 (%v)", c.Len(), c.Elements())
	}
}

func TestFilterNilPredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil predicate should panic")
		}
	}()
	NewFilter("f", nil)
}

func TestMapTransforms(t *testing.T) {
	m := NewMap("m", func(e stream.Element) stream.Element {
		e.Val *= 2
		return e
	})
	c := NewCollector(1)
	m.Subscribe(c, 0)
	push(m, seq(5, 1)...)
	c.Wait()
	for _, e := range c.Elements() {
		if e.Val != 2 {
			t.Fatalf("map not applied: %v", e)
		}
	}
}

func TestProjectDropsPayload(t *testing.T) {
	p := NewProject("p")
	c := NewCollector(1)
	p.Subscribe(c, 0)
	push(p, stream.Element{TS: 9, Key: 5, Val: 3, Aux: "x"})
	c.Wait()
	got := c.Elements()[0]
	if got.TS != 9 || got.Key != 5 || got.Val != 0 || got.Aux != nil {
		t.Fatalf("projection kept too much: %+v", got)
	}
}

func TestUnionMergesAndClosesOnce(t *testing.T) {
	u := NewUnion("u", 3)
	c := NewCollector(1)
	u.Subscribe(c, 0)
	for port := 0; port < 3; port++ {
		for i := 0; i < 10; i++ {
			testutil.Push(u, port, stream.Element{Key: int64(port)})
		}
	}
	u.Done(0)
	u.Done(1)
	select {
	case <-waitCh(c):
		t.Fatal("union closed before all ports done")
	default:
	}
	u.Done(2)
	c.Wait()
	if c.Len() != 30 {
		t.Fatalf("got %d, want 30", c.Len())
	}
}

func waitCh(c *Collector) chan struct{} {
	ch := make(chan struct{})
	go func() { c.Wait(); close(ch) }()
	return ch
}

func TestSampleDeterministicRate(t *testing.T) {
	s := NewSample("s", 0.25, 7)
	c := NewCollector(1)
	s.Subscribe(c, 0)
	push(s, seq(100_000, 1)...)
	c.Wait()
	got := float64(c.Len()) / 100_000
	if got < 0.24 || got > 0.26 {
		t.Fatalf("sample rate %v, want ~0.25", got)
	}
	// Same seed, same sample.
	s2 := NewSample("s2", 0.25, 7)
	c2 := NewCollector(1)
	s2.Subscribe(c2, 0)
	push(s2, seq(100_000, 1)...)
	c2.Wait()
	if c2.Len() != c.Len() {
		t.Fatalf("same seed produced %d vs %d", c2.Len(), c.Len())
	}
}

func TestSampleBadProbabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p > 1 should panic")
		}
	}()
	NewSample("s", 1.5, 1)
}

func TestCostSimBurnsAndFilters(t *testing.T) {
	cs := NewCostSim("c", 200_000, func(e stream.Element) bool { return e.Key%2 == 0 })
	col := NewCollector(1)
	cs.Subscribe(col, 0)
	start := nowNS()
	push(cs, seq(10, 1)...)
	elapsed := nowNS() - start
	col.Wait()
	if col.Len() != 5 {
		t.Fatalf("got %d, want 5", col.Len())
	}
	if elapsed < 10*200_000 {
		t.Fatalf("cost not burned: %dns for 10 elements", elapsed)
	}
	if cs.CostNS() != 200_000 {
		t.Fatalf("CostNS = %d", cs.CostNS())
	}
}

func nowNS() int64 { return monotime() }

func TestBaseFanout(t *testing.T) {
	m := NewMap("m", func(e stream.Element) stream.Element { return e })
	a, b := NewCollector(1), NewCollector(1)
	m.Subscribe(a, 0)
	m.Subscribe(b, 0)
	if m.Fanout() != 2 {
		t.Fatalf("fanout %d", m.Fanout())
	}
	push(m, seq(4, 1)...)
	a.Wait()
	b.Wait()
	if a.Len() != 4 || b.Len() != 4 {
		t.Fatalf("fanout delivery %d/%d", a.Len(), b.Len())
	}
	// Out counts elements, not deliveries.
	if m.Stats().Out() != 4 {
		t.Fatalf("out = %d, want 4", m.Stats().Out())
	}
}

func TestBaseUnsubscribeUnknownPanics(t *testing.T) {
	m := NewMap("m", func(e stream.Element) stream.Element { return e })
	defer func() {
		if recover() == nil {
			t.Fatal("should panic")
		}
	}()
	m.Unsubscribe(NewCollector(1), 0)
}

func TestBaseDoneInvalidPortPanics(t *testing.T) {
	f := NewFilter("f", func(stream.Element) bool { return true })
	defer func() {
		if recover() == nil {
			t.Fatal("should panic")
		}
	}()
	f.Done(1)
}

func TestCloseIdempotent(t *testing.T) {
	f := NewFilter("f", func(stream.Element) bool { return true })
	c := NewCollector(1)
	f.Subscribe(c, 0)
	f.Close()
	f.Close()
	c.Wait() // would hang or panic on double Done miscounting
	if !f.Closed() {
		t.Fatal("not closed")
	}
}

func TestCollectorMultiplePorts(t *testing.T) {
	c := NewCollector(2)
	testutil.Push(c, 0, stream.Element{})
	testutil.Push(c, 1, stream.Element{})
	c.Done(0)
	select {
	case <-waitCh(c):
		t.Fatal("collector closed after one of two ports")
	default:
	}
	c.Done(1)
	c.Wait()
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
}

func TestCounterRecordsSeries(t *testing.T) {
	c := NewCounter(1)
	// series recording covered in exp tests; here just counting.
	for i := 0; i < 7; i++ {
		testutil.Push(c, 0, stream.Element{})
	}
	c.Done(0)
	c.Wait()
	if c.Count() != 7 {
		t.Fatalf("count %d", c.Count())
	}
}

func TestLatencySink(t *testing.T) {
	now := int64(1000)
	l := NewLatencySink(1, func() int64 { return now })
	testutil.Push(l, 0, stream.Element{TS: 900})
	testutil.Push(l, 0, stream.Element{TS: 800})
	l.Done(0)
	l.Wait()
	if l.Count() != 2 {
		t.Fatalf("count %d", l.Count())
	}
	if q := l.Quantile(1); q != 200 {
		t.Fatalf("max latency %v, want 200", q)
	}
	if q := l.Quantile(0); q != 100 {
		t.Fatalf("min latency %v, want 100", q)
	}
}

// TestLatencySinkConcurrentPorts feeds a two-port sink from two
// goroutines at once, as two upstream executors do; every observation
// counts, so Count and Max are exact. Run with -race.
func TestLatencySinkConcurrentPorts(t *testing.T) {
	const perPort = 20_000
	l := NewLatencySink(2, func() int64 { return 1 << 30 })
	var wg sync.WaitGroup
	for port := 0; port < 2; port++ {
		wg.Add(1)
		go func(port int) {
			defer wg.Done()
			batch := make([]stream.Element, 16)
			for i := 0; i < perPort; i += len(batch) {
				for j := range batch {
					// Latencies 1..2*perPort, interleaved across ports.
					batch[j].TS = 1<<30 - int64(2*(i+j)+port+1)
				}
				l.ProcessBatch(port, batch)
			}
			l.Done(port)
		}(port)
	}
	wg.Wait()
	l.Wait()
	if l.Count() != 2*perPort {
		t.Fatalf("count %d, want %d", l.Count(), 2*perPort)
	}
	if l.Max() != 2*perPort {
		t.Fatalf("max %d, want %d", l.Max(), 2*perPort)
	}
}

func TestNullSink(t *testing.T) {
	n := NewNull(1)
	testutil.Push(n, 0, stream.Element{})
	n.Done(0)
	n.Wait()
}

func TestFifoHelper(t *testing.T) {
	var f ring.Ring[stream.Element]
	if f.Len() != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := 0; i < 100; i++ {
		f.Push(stream.Element{Key: int64(i)})
	}
	for i := 0; i < 60; i++ {
		if got := f.Pop(); got.Key != int64(i) {
			t.Fatalf("pop %d = %d", i, got.Key)
		}
	}
	// Interleave to exercise wraparound and growth while wrapped.
	for i := 100; i < 200; i++ {
		f.Push(stream.Element{Key: int64(i)})
	}
	want := int64(60)
	for f.Len() != 0 {
		if got := f.Pop(); got.Key != want {
			t.Fatalf("pop = %d, want %d", got.Key, want)
		}
		want++
	}
	if want != 200 {
		t.Fatalf("drained %d elements, want 200", want-60)
	}
}
