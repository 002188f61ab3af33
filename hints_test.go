package hmts_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/testutil"
)

// hintCase is one builder method in a one-operator query. two marks the
// methods that take a second input stream; build returns the operator's
// output.
type hintCase struct {
	name  string
	two   bool
	build func(a, b *hmts.Stream) *hmts.Stream
}

// hintWindow is the window or slack of every windowed case: at the
// sources' 1 MHz it holds about a thousand elements per input.
const hintWindow = time.Millisecond

var hintCases = []hintCase{
	{"Where", false, func(a, _ *hmts.Stream) *hmts.Stream {
		return a.Where("op", func(e hmts.Element) bool { return e.Key%2 == 0 })
	}},
	{"Map", false, func(a, _ *hmts.Stream) *hmts.Stream {
		return a.Map("op", func(e hmts.Element) hmts.Element { e.Val++; return e })
	}},
	{"Project", false, func(a, _ *hmts.Stream) *hmts.Stream { return a.Project("op") }},
	{"Aggregate", false, func(a, _ *hmts.Stream) *hmts.Stream {
		return a.Aggregate("op", hmts.Count, hintWindow, func(e hmts.Element) int64 { return e.Key })
	}},
	{"AggregateRows", false, func(a, _ *hmts.Stream) *hmts.Stream {
		return a.AggregateRows("op", hmts.Count, 1000, func(e hmts.Element) int64 { return e.Key })
	}},
	{"Join", true, func(a, b *hmts.Stream) *hmts.Stream { return a.Join("op", b, hintWindow, nil) }},
	{"JoinNested", true, func(a, b *hmts.Stream) *hmts.Stream { return a.JoinNested("op", b, hintWindow, nil, nil) }},
	{"JoinMany", true, func(a, b *hmts.Stream) *hmts.Stream { return a.JoinMany("op", hintWindow, b) }},
	{"Union", true, func(a, b *hmts.Stream) *hmts.Stream { return a.Union("op", b) }},
	{"Distinct", false, func(a, _ *hmts.Stream) *hmts.Stream { return a.Distinct("op", hintWindow) }},
	{"Reorder", false, func(a, _ *hmts.Stream) *hmts.Stream { return a.Reorder("op", hintWindow) }},
	{"TopK", false, func(a, _ *hmts.Stream) *hmts.Stream { return a.TopK("op", 8, hintWindow) }},
	{"Throttle", false, func(a, _ *hmts.Stream) *hmts.Stream { return a.Throttle("op", 500_000, 64) }},
	{"Sample", false, func(a, _ *hmts.Stream) *hmts.Stream { return a.Sample("op", 0.5, 1) }},
}

// runHintCase runs c's one-operator query under ModeDI at batch 64, each
// source cycling through 1000 keys, and returns the operator's measured
// and planned costs.
func runHintCase(t *testing.T, c hintCase) (measured, planned float64) {
	t.Helper()
	const n = 20_000
	gen := func(seed int) hmts.Gen {
		return func(i int) hmts.Element {
			return hmts.Element{Key: int64((i*7919 + seed) % 1000), Val: float64(i%5) - 1}
		}
	}
	eng := hmts.New()
	a := eng.Source("a", hmts.GenerateStamped(n, 1e6, gen(0)).Batched(64))
	var b *hmts.Stream
	if c.two {
		b = eng.Source("b", hmts.GenerateStamped(n, 1e6, gen(1)).Batched(64))
	}
	out := c.build(a, b).Discard("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeDI, Batch: 64})
	eng.Wait()
	out.Wait()
	for _, o := range eng.Metrics().Ops {
		if o.Name == "op" {
			return o.CostNS, o.PlannedCostNS
		}
	}
	t.Fatalf("%s: no operator named op", c.name)
	return 0, 0
}

// TestBuilderHintsMatchMeasuredCosts: Algorithm 1 places queues from each
// operator's c(v), and before any measurement that is the builder's
// default hint. Each default must price what the engine's own metering
// reads for the operator with a trivial closure, within a factor of three
// either way: a hint several times too high gives cheap operators queues
// and executors of their own. The race detector slows operators unevenly,
// so under it only the upper bound is checked.
func TestBuilderHintsMatchMeasuredCosts(t *testing.T) {
	var err error
	for a := 0; a < attempts; a++ {
		if err = hintsMatch(t); err == nil {
			return
		}
		t.Log(err)
	}
	t.Fatal(err)
}

func hintsMatch(t *testing.T) error {
	runs := make([]func() []float64, len(hintCases))
	hints := make([]float64, len(hintCases))
	for i, c := range hintCases {
		runs[i] = func() []float64 {
			var measured float64
			measured, hints[i] = runHintCase(t, c)
			return []float64{measured}
		}
	}
	var bad []string
	for i, r := range minOverRounds(3, runs...) {
		c, hint := r[0], hints[i]
		t.Logf("%-13s hint %5.0f ns, measured %5.0f ns", hintCases[i].name, hint, c)
		if hint > 3*c || (!testutil.RaceEnabled && hint < c/3) {
			bad = append(bad, fmt.Sprintf("%s (hint %.0f ns, measured %.0f ns)", hintCases[i].name, hint, c))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("builder hints more than 3x off the measured c(v): %s", strings.Join(bad, ", "))
	}
	return nil
}
