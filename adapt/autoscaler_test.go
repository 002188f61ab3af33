package adapt

import (
	"fmt"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
)

// region synthesizes the snapshot of one shard region named "agg" whose
// replicas carry the given utilizations (c/d each), with explicit skew and
// pause estimate. In counts are large enough to clear minSamples.
func region(utils []float64, skew float64, pauseNS int64) hmts.Metrics {
	m := hmts.Metrics{Executors: 1}
	s := hmts.ShardMetrics{Name: "agg", N: len(utils), Skew: skew, PauseEstNS: pauseNS}
	for i, u := range utils {
		name := fmt.Sprintf("agg#%d", i)
		s.Replicas = append(s.Replicas, name)
		s.In = append(s.In, 1000)
		m.Ops = append(m.Ops, hmts.OpMetrics{
			Name: name, In: 1000, CostNS: u * 1000, InterarrivalNS: 1000,
		})
	}
	m.Shards = []hmts.ShardMetrics{s}
	return m
}

// flat returns n replicas at utilization u each.
func flat(n int, u float64) []float64 {
	us := make([]float64, n)
	for i := range us {
		us[i] = u
	}
	return us
}

// scaler returns a planner running only the reshard decision, with the
// default 0.7 headroom.
func scaler(cfg Config) *Controller {
	cfg.Reshard = true
	return New(nil, cfg)
}

// warm plans m persist-1 times, failing on any proposal: the streak is
// one observation short of firing.
func warm(t *testing.T, c *Controller, m hmts.Metrics) {
	t.Helper()
	for i := 1; i < persist; i++ {
		if prs := c.plan(m); len(prs) != 0 {
			t.Fatalf("observation %d of %d proposed %+v", i, persist, prs)
		}
	}
}

func TestAutoscalerScaleUp(t *testing.T) {
	a := scaler(Config{})
	// One replica at 1.8x capacity: the model wants ceil(1.8/0.7) = 3.
	m := region(flat(1, 1.8), 1, 0)
	warm(t, a, m)
	prs := a.plan(m)
	if len(prs) != 1 || prs[0] != (proposal{act: Reshard, by: "scale-up", region: "agg", shards: 3}) {
		t.Fatalf("persistent overload should solve 3 replicas: %+v", prs)
	}
	// Post-reshard the same total load spreads to 0.6/replica — inside
	// the band, no further action however long it persists.
	after := region(flat(3, 0.6), 1, 0)
	for i := 0; i < 10; i++ {
		if prs := a.plan(after); len(prs) != 0 {
			t.Fatalf("settled region proposed %+v", prs)
		}
	}
}

func TestAutoscalerScaleDown(t *testing.T) {
	a := scaler(Config{})
	// Three replicas nearly idle: region load 0.3 solves to 1 replica.
	m := region(flat(3, 0.1), 1, 0)
	warm(t, a, m)
	prs := a.plan(m)
	if len(prs) != 1 || prs[0] != (proposal{act: Reshard, by: "scale-down", region: "agg", shards: 1}) {
		t.Fatalf("persistent idle should solve 1 replica: %+v", prs)
	}
}

func TestAutoscalerHysteresisHover(t *testing.T) {
	a := scaler(Config{})
	// Load oscillating inside the band (0.35..0.875 per replica) must
	// never reshard, no matter how long it hovers.
	for i := 0; i < 50; i++ {
		u := 0.5
		if i%2 == 1 {
			u = 0.8
		}
		if prs := a.plan(region(flat(2, u), 1, 0)); len(prs) != 0 {
			t.Fatalf("tick %d: resharded inside the hysteresis band: %+v", i, prs)
		}
	}
	// A spike shorter than the persist window does not either.
	for i := 0; i < 10; i++ {
		u := 0.5
		if i%persist == 0 {
			u = 1.5
		}
		if prs := a.plan(region(flat(2, u), 1, 0)); len(prs) != 0 {
			t.Fatalf("tick %d: a one-tick spike resharded: %+v", i, prs)
		}
	}
}

func TestAutoscalerSkewVeto(t *testing.T) {
	a := scaler(Config{})
	// One hot replica carries nearly all load: skew 1.9 on 2 replicas
	// (≥ 0.8·N) — more replicas cannot split one hot key.
	hot := region([]float64{1.5, 0.1}, 1.9, 0)
	warm(t, a, hot)
	if prs := a.plan(hot); len(prs) != 0 {
		t.Fatalf("hot-key region scaled up: %+v", prs)
	}
	if skew, _ := a.Vetoes(); skew == 0 {
		t.Fatal("skew veto not recorded")
	}
	// The same pressure without skew does scale, at once: the streak
	// already persisted.
	even := region(flat(2, 0.95), 1.05, 0)
	if prs := a.plan(even); len(prs) != 1 {
		t.Fatalf("even overload should scale: %+v", prs)
	}
}

func TestAutoscalerPauseVeto(t *testing.T) {
	a := scaler(Config{PauseBudget: 50 * time.Millisecond})
	// Overloaded, but resharding would pause the region for 2s.
	heavy := region(flat(1, 1.8), 1, int64(2*time.Second))
	warm(t, a, heavy)
	if prs := a.plan(heavy); len(prs) != 0 {
		t.Fatalf("reshard proposed past the pause budget: %+v", prs)
	}
	if _, pause := a.Vetoes(); pause == 0 {
		t.Fatal("pause veto not recorded")
	}
	// Once the window drains (cheap handoff) the saturated streak fires
	// immediately — the condition already persisted.
	cheap := region(flat(1, 1.8), 1, int64(time.Millisecond))
	if prs := a.plan(cheap); len(prs) != 1 || prs[0].shards != 3 {
		t.Fatalf("cheap reshard after veto should fire at once: %+v", prs)
	}
}

func TestAutoscalerHoldsWithoutMeasurements(t *testing.T) {
	a := scaler(Config{})
	// Replicas exist but have no reliable estimates yet (fresh after a
	// reshard): hold position, and forget the streak built before.
	over := region(flat(2, 1.5), 1, 0)
	warm(t, a, over)
	fresh := region(flat(2, 1.5), 1, 0)
	for i := range fresh.Ops {
		fresh.Ops[i].In = minSamples - 1
	}
	if prs := a.plan(fresh); len(prs) != 0 {
		t.Fatalf("acted on unmeasured replicas: %+v", prs)
	}
	warm(t, a, over)
}

func TestAutoscalerPrunesDeadRegions(t *testing.T) {
	a := scaler(Config{})
	a.plan(region(flat(1, 1.8), 1, 0))
	if len(a.streak) != 1 {
		t.Fatalf("region state missing: %v", a.streak)
	}
	a.plan(hmts.Metrics{})
	if len(a.streak) != 0 {
		t.Fatalf("dead region state leaked: %v", a.streak)
	}
}

// TestAutoscalerActuatesThroughController closes the loop on a live
// engine: the planner reads the real region and replica names from the
// engine, an overloaded trace of that region makes it propose, the
// controller actuates the proposal through Engine.Reshard, and the next
// snapshot reports the new replica count.
func TestAutoscalerActuatesThroughController(t *testing.T) {
	ext := hmts.External("ext", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 256})
	eng := hmts.New()
	sink := eng.Source("ext", ext.Spec()).
		Aggregate("agg", hmts.Count, time.Hour, func(e hmts.Element) int64 { return e.Key }).
		Shard(1).
		CountSink("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})
	for i := 0; i < 200; i++ {
		ext.Push(hmts.Element{TS: hmts.Time((i + 1) * 1e6), Key: int64(i % 16)})
	}

	c := New(eng, Config{Period: time.Hour, Reshard: true})
	live := eng.Metrics()
	if len(live.Shards) != 1 || live.Shards[0].N != 1 {
		t.Fatalf("setup: %+v", live.Shards)
	}
	// The engine's own metrics show no overload: no action.
	if got := c.Step(); got != None {
		t.Fatalf("idle step acted: %v", got)
	}
	// Drive the planner with the live snapshot, its replica measured at
	// 1.8x capacity.
	plan := c.propose
	c.propose = func(m hmts.Metrics) []proposal {
		for i, o := range m.Ops {
			if o.Name == m.Shards[0].Replicas[0] {
				m.Ops[i].In, m.Ops[i].CostNS, m.Ops[i].InterarrivalNS = 1000, 1800, 1000
			}
		}
		return plan(m)
	}
	for i := 1; i < persist; i++ {
		if got := c.Step(); got != None {
			t.Fatalf("observation %d acted: %v", i, got)
		}
	}
	if got := c.Step(); got != Reshard {
		t.Fatalf("persistent overload did not reshard: %v (events %+v)", got, c.Events())
	}
	if got := eng.Metrics().Shards[0].N; got != 3 {
		t.Fatalf("region not resized: n=%d", got)
	}
	ev := c.Events()[0]
	if ev.Region != "agg" || ev.Shards != 3 || ev.Err != nil || ev.Trigger != "scale-up" {
		t.Fatalf("reshard event %+v", ev)
	}
	if len(c.streak) != 0 {
		t.Fatalf("executed reshard did not reset its streak: %v", c.streak)
	}

	ext.Close()
	eng.Wait()
	sink.Wait()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAutoscalerPropose measures the planner's per-period reshard
// decision on a wide deployment (16 regions × 8 replicas): it runs inside
// the controller loop, so it must stay far below any sane period.
func BenchmarkAutoscalerPropose(b *testing.B) {
	const regions, replicas = 16, 8
	m := hmts.Metrics{Executors: 8}
	for r := 0; r < regions; r++ {
		s := hmts.ShardMetrics{Name: fmt.Sprintf("agg%d", r), N: replicas, Skew: 1.1}
		for i := 0; i < replicas; i++ {
			name := fmt.Sprintf("agg%d#%d", r, i)
			s.Replicas = append(s.Replicas, name)
			s.In = append(s.In, 1000)
			m.Ops = append(m.Ops, hmts.OpMetrics{
				Name: name, In: 1000, CostNS: 500, InterarrivalNS: 1000,
			})
		}
		m.Shards = append(m.Shards, s)
	}
	a := scaler(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if prs := a.plan(m); len(prs) != 0 {
			b.Fatalf("steady snapshot proposed %+v", prs)
		}
	}
}
