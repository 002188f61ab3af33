package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestEWMAFirstObservationExact(t *testing.T) {
	var e ewma
	if e.value() != 0 {
		t.Fatal("fresh estimate not zero")
	}
	e.observe(42)
	if e.value() != 42 {
		t.Fatalf("first observation: %v", e.value())
	}
	e.observe(0)
	if want := 42 * (1 - alpha); math.Abs(e.value()-want) > 1e-9 {
		t.Fatalf("second observation: %v, want %v", e.value(), want)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	var e ewma
	for i := 0; i < 100; i++ {
		e.observe(7)
	}
	if math.Abs(e.value()-7) > 1e-9 {
		t.Fatalf("EWMA of constant = %v", e.value())
	}
}

func TestEWMATracksShift(t *testing.T) {
	var e ewma
	for i := 0; i < 50; i++ {
		e.observe(10)
	}
	for i := 0; i < 200; i++ {
		e.observe(100)
	}
	if math.Abs(e.value()-100) > 1 {
		t.Fatalf("EWMA failed to track level shift: %v", e.value())
	}
}

func TestEWMABoundedByExtremes(t *testing.T) {
	// Restricted to the estimator's real domain (nanosecond-scale
	// measurements); at ±1e308 the intermediate v-value overflows.
	if err := quick.Check(func(vals []float64) bool {
		var e ewma
		lo, hi := math.Inf(1), math.Inf(-1)
		ok := false
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(v, 1e12)
			ok = true
			e.observe(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if !ok {
			return true
		}
		got := e.value()
		return got >= lo-1e-9 && got <= hi+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpStatsCountsAndSelectivity(t *testing.T) {
	var s OpStats
	if s.Selectivity() != 1 {
		t.Fatalf("fresh selectivity %v, want neutral 1", s.Selectivity())
	}
	if s.CostNS() != 0 || s.InterarrivalNS() != 0 {
		t.Fatalf("fresh estimates c=%v d=%v, want 0", s.CostNS(), s.InterarrivalNS())
	}
	for i := 0; i < 10; i++ {
		s.RecordIn(1)
	}
	s.RecordOut(4)
	if s.In() != 10 || s.Out() != 4 {
		t.Fatalf("in=%d out=%d", s.In(), s.Out())
	}
	if math.Abs(s.Selectivity()-0.4) > 1e-9 {
		t.Fatalf("selectivity %v", s.Selectivity())
	}
	s.ObserveInterarrival(100)
	if d := s.InterarrivalNS(); d != 100 {
		t.Fatalf("interarrival %v, want 100", d)
	}
}

func TestOpStatsBusy(t *testing.T) {
	var s OpStats
	s.ObserveCost(100)
	if c := s.CostNS(); c != 100 {
		t.Fatalf("first cost sample %v, want 100", c)
	}
	s.ObserveCost(200)
	if c := s.CostNS(); c <= 100 || c > 200 {
		t.Fatalf("cost estimate %v out of sample range", c)
	}
	if s.InterarrivalNS() != 0 {
		t.Fatal("a cost sample moved d(v)")
	}
}

// TestCostSpikeBounded: a metered batch the OS preempted reads far above
// the operator's cost, and one such sample must not move c(v) far. A real
// rise must still show within a few dozen samples.
func TestCostSpikeBounded(t *testing.T) {
	var s OpStats
	for i := 0; i < 20; i++ {
		s.ObserveCost(500)
	}
	s.ObserveCost(100_000)
	if c := s.CostNS(); c > 2*500 {
		t.Fatalf("one 100 µs sample moved c(v) from 500 to %.0f ns", c)
	}
	var step OpStats
	step.ObserveCost(500)
	for i := 0; i < 30; i++ {
		step.ObserveCost(5000)
	}
	if c := step.CostNS(); c < 5*500 {
		t.Fatalf("30 samples of a 10x step moved c(v) from 500 to %.0f ns, want at least half the step", c)
	}
	var d OpStats
	d.ObserveInterarrival(500)
	d.ObserveInterarrival(100_000)
	if want := 500 + alpha*(100_000-500); d.InterarrivalNS() != want {
		t.Fatalf("d(v) %.0f, want the uncapped %.0f", d.InterarrivalNS(), want)
	}
}

// TestOpStatsConcurrentProducers bumps the counters from several
// goroutines: they are plain atomics, so no count may be lost. Run with
// -race.
func TestOpStatsConcurrentProducers(t *testing.T) {
	const producers, perProd = 8, 5_000
	var s OpStats
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				s.RecordIn(1)
				s.RecordOut(1)
			}
		}()
	}
	wg.Wait()
	if s.In() != producers*perProd || s.Out() != producers*perProd {
		t.Fatalf("in=%d out=%d, want %d each", s.In(), s.Out(), producers*perProd)
	}
}

// TestOpStatsConcurrentReaders runs the single writer against lock-free
// readers: every published estimate must be one the writer could have
// produced, here a value within the range of its samples. Run with -race.
func TestOpStatsConcurrentReaders(t *testing.T) {
	var s OpStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10_000; i++ {
			s.RecordIn(1)
			s.ObserveCost(float64(100 + i%100))
			s.ObserveInterarrival(float64(1000 + i%1000))
			s.RecordOut(1)
		}
	}()
	for i := 0; i < 1000; i++ {
		_ = s.Selectivity()
		if c := s.CostNS(); c != 0 && (c < 100 || c > 200) {
			t.Fatalf("torn cost estimate %v", c)
		}
		if d := s.InterarrivalNS(); d != 0 && (d < 1000 || d > 2000) {
			t.Fatalf("torn interarrival estimate %v", d)
		}
	}
	<-done
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("x")
	if s.Max() != 0 || s.Mean() != 0 {
		t.Fatal("empty series aggregates should be 0")
	}
	s.Add(10, 1)
	s.Add(20, 5)
	s.Add(30, 3)
	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
	if s.Max() != 5 {
		t.Fatalf("max %v", s.Max())
	}
	if math.Abs(s.Mean()-3) > 1e-9 {
		t.Fatalf("mean %v", s.Mean())
	}
	csv := s.CSV()
	if csv == "" || csv[:4] != "t_s," {
		t.Fatalf("csv header: %q", csv)
	}
}

func TestSamplerSumsGauges(t *testing.T) {
	now := int64(0)
	s := NewSampler("mem", time.Hour, func() int64 { return now })
	g1, g2 := &fakeGauge{5}, &fakeGauge{7}
	s.Track(g1)
	s.Track(g2)
	s.Sample()
	now = 10
	g1.n = 1
	s.Sample()
	pts := s.Series().Points()
	if len(pts) != 2 || pts[0].V != 12 || pts[1].V != 8 {
		t.Fatalf("points %v", pts)
	}
}

type fakeGauge struct{ n int }

func (f *fakeGauge) Len() int { return f.n }

func TestSamplerStartStop(t *testing.T) {
	s := NewSampler("mem", time.Millisecond, func() int64 { return 0 })
	s.Track(&fakeGauge{1})
	s.Stop() // stop before start is a no-op
	s.Start()
	time.Sleep(10 * time.Millisecond)
	s.Stop()
	if s.Series().Len() == 0 {
		t.Fatal("sampler recorded nothing")
	}
	func() {
		defer func() { recover() }()
		s.Start()
		s.Start() // second start must panic
		t.Fatal("double Start did not panic")
	}()
	s.Stop()
}
