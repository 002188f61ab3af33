package hmts_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
)

func TestQuickQueryAllModes(t *testing.T) {
	for _, mode := range []hmts.Mode{hmts.ModeGTS, hmts.ModeOTS, hmts.ModeDI, hmts.ModePureDI, hmts.ModeHMTS} {
		eng := hmts.New()
		src := eng.Source("src", hmts.GenerateStamped(10_000, 1e6, hmts.SeqKeys()))
		out := src.
			Where("even", func(e hmts.Element) bool { return e.Key%2 == 0 }).
			Map("scale", func(e hmts.Element) hmts.Element { e.Val *= 10; return e })
		sink := out.Collect("out")
		if err := eng.Run(hmts.RunConfig{Mode: mode}); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		eng.Wait()
		sink.Wait()
		if got := sink.Len(); got != 5000 {
			t.Fatalf("%v: got %d results, want 5000", mode, got)
		}
	}
}

func TestSubquerySharing(t *testing.T) {
	// Figure 1: a join shared by three downstream consumers.
	eng := hmts.New()
	l := eng.Source("l", hmts.GenerateStamped(2000, 1e6, hmts.UniformKeys(0, 40, 1)))
	r := eng.Source("r", hmts.GenerateStamped(2000, 1e6, hmts.UniformKeys(0, 40, 2)))
	j := l.Join("join", r, time.Hour, nil)
	a := j.Where("big", func(e hmts.Element) bool { return e.Key > 20 }).CountSink("a")
	b := j.Where("small", func(e hmts.Element) bool { return e.Key <= 20 }).CountSink("b")
	c := j.CountSink("c")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeGTS})
	eng.Wait()
	a.Wait()
	b.Wait()
	c.Wait()
	if a.Count()+b.Count() != c.Count() {
		t.Fatalf("shared join split inconsistent: %d + %d != %d", a.Count(), b.Count(), c.Count())
	}
	if c.Count() == 0 {
		t.Fatal("join produced nothing")
	}
}

func TestAggregateQuery(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("src", hmts.GenerateStamped(1000, 1000, func(i int) hmts.Element {
		return hmts.Element{Key: int64(i % 4), Val: 1}
	}))
	agg := src.Aggregate("cnt", hmts.Count, time.Hour, func(e hmts.Element) int64 { return e.Key })
	sink := agg.Collect("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeDI})
	eng.Wait()
	sink.Wait()
	els := sink.Elements()
	if len(els) != 1000 {
		t.Fatalf("continuous aggregate should emit per input: got %d", len(els))
	}
	// Final counts per group must be 250 each.
	last := map[int64]float64{}
	for _, e := range els {
		last[e.Key] = e.Val
	}
	for k, v := range last {
		if v != 250 {
			t.Fatalf("group %d final count = %v, want 250", k, v)
		}
	}
}

func TestSwitchModeAndRebalance(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("src", hmts.GenerateStamped(300_000, 1e6, hmts.SeqKeys()))
	sink := src.
		Where("w1", func(e hmts.Element) bool { return e.Key%3 != 0 }).
		Where("w2", func(e hmts.Element) bool { return e.Key%5 != 0 }).
		CountSink("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeOTS})
	if err := eng.SwitchMode(hmts.ModeGTS, "chain"); err != nil {
		t.Fatalf("switch: %v", err)
	}
	if err := eng.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	eng.Wait()
	sink.Wait()
	want := uint64(300_000 * 2 / 3 * 4 / 5)
	got := sink.Count()
	if diff := int64(got) - int64(want); diff > 2 || diff < -2 {
		t.Fatalf("got %d results, want ~%d", got, want)
	}
}

func TestMetricsAndDOT(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("src", hmts.GenerateStamped(10_000, 1e6, hmts.SeqKeys()))
	sink := src.Where("half", func(e hmts.Element) bool { return e.Key%2 == 0 }).CountSink("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeGTS})
	eng.Wait()
	sink.Wait()
	m := eng.Metrics()
	if len(m.Ops) != 1 {
		t.Fatalf("want 1 op metric, got %d", len(m.Ops))
	}
	if m.Ops[0].In != 10_000 || m.Ops[0].Out != 5_000 {
		t.Fatalf("op metrics in=%d out=%d", m.Ops[0].In, m.Ops[0].Out)
	}
	if sel := m.Ops[0].Selectivity; sel < 0.49 || sel > 0.51 {
		t.Fatalf("selectivity %v, want ~0.5", sel)
	}
	if len(m.Queues) != 1 {
		t.Fatalf("GTS over 1 op should have 1 queue, got %d", len(m.Queues))
	}
	dot := eng.DOT()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "queue") {
		t.Fatalf("DOT output missing expected content:\n%s", dot)
	}
	if s := m.String(); !strings.Contains(s, "half") {
		t.Fatalf("metrics string missing operator: %s", s)
	}
}

func TestErrorOnDoubleRun(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("src", hmts.GenerateStamped(10, 1e6, nil))
	src.Discard("null")
	eng.MustRun(hmts.RunConfig{})
	if err := eng.Run(hmts.RunConfig{}); err == nil {
		t.Fatal("second Run should fail")
	}
	eng.Wait()
}

func TestRealTimePoissonSource(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("poisson", hmts.GeneratePoisson(2000, 100_000, nil, 7))
	sink := src.CountSink("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeDI})
	eng.Wait()
	sink.Wait()
	if sink.Count() != 2000 {
		t.Fatalf("got %d, want 2000", sink.Count())
	}
}

func TestExplain(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("src", hmts.GenerateStamped(50_000, 100_000, hmts.SeqKeys()))
	sink := src.
		Where("cheap", func(e hmts.Element) bool { return e.Key%2 == 0 }).Hint(100, 0.5).
		Map("heavy", func(e hmts.Element) hmts.Element { return e }).Hint(50_000, 1).
		CountSink("out")
	if s := eng.Explain(); !strings.Contains(s, "not deployed") {
		t.Fatalf("pre-run explain: %s", s)
	}
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})
	s := eng.Explain()
	if !strings.Contains(s, "VO{") || !strings.Contains(s, "cap=") {
		t.Fatalf("explain missing plan details:\n%s", s)
	}
	// The mis-capacitated heavy op (50µs > 10µs interarrival) must be
	// marked as stalling in its own VO.
	if !strings.Contains(s, "STALLS") {
		t.Fatalf("stalling VO not flagged:\n%s", s)
	}
	eng.Wait()
	sink.Wait()
}

// TestExplainFanOutLoad: twenty cheap siblings fused behind one producer
// read a negative cap(P) — d(P) counts each sibling's input as its own
// arrival stream — yet need 0.61 of one core, so Explain reports the
// load and marks the VO ok, not STALLS.
func TestExplainFanOutLoad(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("src", hmts.GenerateStamped(20_000, 100_000, hmts.SeqKeys()))
	pre := src.Where("pre", func(e hmts.Element) bool { return true }).Hint(100, 1)
	var sinks []*hmts.Counter
	for i := 0; i < 20; i++ {
		sinks = append(sinks, pre.
			Where(fmt.Sprintf("sib%d", i), func(e hmts.Element) bool { return e.Key%2 == 0 }).Hint(300, 0.5).
			CountSink(fmt.Sprintf("out%d", i)))
	}
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})
	s := eng.Explain()
	var line string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, "sib0 ") {
			line = l
		}
	}
	for _, want := range []string{"sib19", "cap=-", "load=0.61", "[ok]"} {
		if !strings.Contains(line, want) {
			t.Fatalf("fan-out VO line lacks %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "STALLS") {
		t.Fatalf("a VO within one core flagged as stalling:\n%s", s)
	}
	eng.Wait()
	for _, k := range sinks {
		k.Wait()
	}
}

// TestMutationsAfterFailStopRejected: once a panicking operator has
// fail-stopped the engine, every live mutation is refused with an error
// instead of halting and restarting executors on the stopped deployment.
func TestMutationsAfterFailStopRejected(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("src", hmts.GenerateStamped(10_000, 1e6, hmts.SeqKeys()))
	src.
		Where("bomb", func(e hmts.Element) bool {
			if e.Key == 500 {
				panic("operator bug")
			}
			return true
		}).
		Aggregate("agg", hmts.Sum, time.Hour, func(e hmts.Element) int64 { return e.Key % 8 }).
		Shard(2).
		Discard("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeOTS})
	eng.Wait()
	if err := eng.Err(); err == nil || !strings.Contains(err.Error(), "operator bug") {
		t.Fatalf("Err() = %v, want the contained panic", err)
	}
	for name, mutate := range map[string]func() error{
		"Reshard":          func() error { return eng.Reshard("agg", 3) },
		"SwitchMode(gts)":  func() error { return eng.SwitchMode(hmts.ModeGTS, "") },
		"SwitchMode(hmts)": func() error { return eng.SwitchMode(hmts.ModeHMTS, "") },
		"Rebalance":        eng.Rebalance,
	} {
		if err := mutate(); err == nil {
			t.Errorf("%s on a fail-stopped engine returned nil", name)
		}
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []hmts.Mode{hmts.ModeGTS, hmts.ModeOTS, hmts.ModeDI, hmts.ModePureDI, hmts.ModeHMTS} {
		if got, err := hmts.ParseMode(m.String()); err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := hmts.ParseMode("puredi"); err != nil || got != hmts.ModePureDI {
		t.Fatalf("ParseMode(puredi) = %v, %v", got, err)
	}
	if _, err := hmts.ParseMode("warp"); err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	}
}
