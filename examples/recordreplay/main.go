// Record & replay with adaptive scheduling: capture a bursty workload's
// query output to a binary trace, then replay the trace as a source for a
// second query — while an adaptive controller watches the live run and
// re-places queues when the measured operator costs drift from the plan.
//
//	go run ./examples/recordreplay
package main

import (
	"bytes"
	"fmt"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/adapt"
	"github.com/dsms/hmts/trace"
)

func main() {
	// Phase 1: run a query over a bursty source and record its output.
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		panic(err)
	}
	rec := trace.NewSink(w)

	eng := hmts.New()
	src := eng.Source("bursty", hmts.GeneratePoisson(250_000, 300_000, func(i int) hmts.Element {
		return hmts.Element{Key: int64(i % 256), Val: float64(i % 100)}
	}, 42))
	interesting := src.
		Where("hot-keys", func(e hmts.Element) bool { return e.Key < 64 }).
		// Deliberately mis-hinted: the planner thinks this is free, the
		// controller will notice the drift and rebalance.
		Map("normalize", func(e hmts.Element) hmts.Element {
			s := e.Val
			for i := 0; i < 200; i++ {
				s = s*0.999 + 1
			}
			e.Val = s
			return e
		}).Hint(5, 1)
	interesting.Into("recorder", rec)

	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})
	ctl := adapt.New(eng, adapt.Config{
		Period:    20 * time.Millisecond,
		Cooldown:  50 * time.Millisecond,
		Rebalance: true,
	})
	ctl.Start()
	eng.Wait()
	rec.Wait()
	ctl.Stop()
	if rec.Err() != nil {
		panic(rec.Err())
	}

	fmt.Printf("recorded %d elements (%d bytes, %.1f B/elem)\n",
		w.Count(), buf.Len(), float64(buf.Len())/float64(w.Count()))
	for _, ev := range ctl.Events() {
		fmt.Printf("controller: %s -> %s (err=%v)\n", ev.Trigger, ev.Action, ev.Err)
	}

	// Phase 2: replay the trace into an offline analysis query.
	els, err := trace.ReadAll(&buf)
	if err != nil {
		panic(err)
	}
	eng2 := hmts.New()
	replay := eng2.Source("replay", hmts.Replay(els))
	perKey := replay.Aggregate("avg-per-key", hmts.Avg, 100*time.Millisecond,
		func(e hmts.Element) int64 { return e.Key })
	top := perKey.Where("outliers", func(e hmts.Element) bool { return e.Val > 228 }).CountSink("out")
	eng2.MustRun(hmts.RunConfig{Mode: hmts.ModeDI})
	eng2.Wait()
	top.Wait()
	fmt.Printf("replayed analysis found %d outlier windows\n", top.Count())
	fmt.Println()
	fmt.Println(eng.Metrics())
}
