package adapt_test

import (
	"fmt"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/adapt"
)

// Example shows a controller watching a live engine and stepping it by
// hand: sixteen operators under one thread each (OTS) is an architecture
// mismatch, so the planner switches the engine to HMTS.
func Example() {
	eng := hmts.New()
	s := eng.Source("s", hmts.GenerateStamped(200_000, 1e6, hmts.SeqKeys()))
	for i := 0; i < 16; i++ {
		s = s.Where(fmt.Sprintf("w%d", i), func(e hmts.Element) bool { return e.Key%2 == 0 })
	}
	sink := s.CountSink("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeOTS})

	ctl := adapt.New(eng, adapt.Config{Period: 50 * time.Millisecond, Switch: true})
	// The mismatch must persist across three consecutive observations.
	act := adapt.None
	for i := 0; i < 3 && act == adapt.None; i++ {
		act = ctl.Step()
	}
	eng.Wait()
	sink.Wait()
	fmt.Println(act, eng.Metrics().Mode, sink.Count())
	// Output: switch-hmts hmts 100000
}
