package hmts_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/testutil"
)

// TestReshardAfterWaitRejected: once the stream has drained, a live
// Reshard fails its up-front "stream is closing" check with an error —
// it used to restart the halted executors and crash the process — and the
// finished engine is left intact.
func TestReshardAfterWaitRejected(t *testing.T) {
	eng := hmts.New()
	out := eng.Source("src", hmts.GenerateStamped(5_000, 1e6, hmts.SeqKeys())).
		Aggregate("agg", hmts.Sum, time.Hour, func(e hmts.Element) int64 { return e.Key % 16 }).
		Shard(2).
		Collect("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeOTS})
	eng.Wait()
	out.Wait()
	want := out.Len()
	if err := eng.Reshard("agg", 3); err == nil || !strings.Contains(err.Error(), "stream is closing") {
		t.Fatalf("Reshard after Wait = %v, want the stream-closing error", err)
	}
	eng.Wait()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if got := out.Len(); got != want || want != 5_000 {
		t.Fatalf("output %d after the rejected Reshard, want %d of 5000", got, want)
	}
}

// TestLiveAddQueryBuildFailureKeepsStanding: on a running engine, an
// AddQuery whose build fails — before or after creating operators —
// returns that error from inside the live splice, and the standing query
// keeps receiving every element.
func TestLiveAddQueryBuildFailureKeepsStanding(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := hmts.New()
	ext := hmts.External("ingress", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 128})
	src := eng.Source("ingress", ext.Spec())
	pass := func(e hmts.Element) bool { return true }
	standing := newMemSink()
	if err := eng.AddQuery("standing", standing, func() (*hmts.Stream, error) {
		return src.Where("all", pass), nil
	}); err != nil {
		t.Fatal(err)
	}
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeGTS, QueueBound: 64})

	const total = 20_000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if !ext.Push(hmts.Element{TS: hmts.Time(i+1) * 1000, Key: int64(i % 50), Val: float64(i)}) {
				t.Errorf("push %d rejected under Block policy", i)
				return
			}
		}
	}()
	boom := errors.New("boom")
	for _, build := range []func() (*hmts.Stream, error){
		func() (*hmts.Stream, error) { return nil, boom },
		func() (*hmts.Stream, error) {
			src.Where("dead-end", pass).Map("x2", func(e hmts.Element) hmts.Element { return e })
			return nil, boom
		},
	} {
		if err := eng.AddQuery("bad", newMemSink(), build); !errors.Is(err, boom) {
			t.Fatalf("live AddQuery with a failing build = %v, want %v", err, boom)
		}
	}
	wg.Wait()
	ext.Close()
	eng.Wait()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	standing.wait(t)
	if got, done, after := standing.snapshot(); len(got) != total || done != 1 || after != 0 {
		t.Fatalf("standing: %d of %d elements, done=%d afterDone=%d", len(got), total, done, after)
	}
}

// TestRebalanceAndSwitchModeRaceMetrics: Rebalance adopts measured stats
// into the graph and SwitchMode records the mode; both must hold the
// engine lock that Metrics reads them under (go test -race catches the
// unsynchronized version).
func TestRebalanceAndSwitchModeRaceMetrics(t *testing.T) {
	eng := hmts.New()
	sink := eng.Source("src", hmts.GenerateStamped(200_000, 1e6, hmts.SeqKeys())).
		Where("w1", func(e hmts.Element) bool { return e.Key%3 != 0 }).
		Where("w2", func(e hmts.Element) bool { return e.Key%5 != 0 }).
		CountSink("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeOTS})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = eng.Metrics()
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if err := eng.Rebalance(); err != nil {
			t.Fatalf("Rebalance: %v", err)
		}
		mode := hmts.ModeGTS
		if i%2 == 1 {
			mode = hmts.ModeOTS
		}
		if err := eng.SwitchMode(mode, ""); err != nil {
			t.Fatalf("SwitchMode: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	eng.Wait()
	sink.Wait()
	if want := uint64(200_000 * 2 / 3 * 4 / 5); sink.Count() < want-2 || sink.Count() > want+2 {
		t.Fatalf("got %d results, want ~%d", sink.Count(), want)
	}
}

// TestUnknownStrategyIsAnError: an unknown strategy name fails Run, and a
// live SwitchMode, with an error before anything is touched. Both used to
// panic, SwitchMode with every executor halted and the world lock held,
// which wedged the sources. After the refused switch the engine drains to
// exactly the output it would have produced unmutated.
func TestUnknownStrategyIsAnError(t *testing.T) {
	const n = 50_000
	eng := hmts.New()
	out := eng.Source("src", hmts.GenerateStamped(n, 1e6, hmts.SeqKeys())).
		Where("even", func(e hmts.Element) bool { return e.Key%2 == 0 }).
		Map("scale", func(e hmts.Element) hmts.Element { e.Val = float64(e.Key) * 10; return e }).
		Collect("out")
	// "roundrobin" and "maxqueue" were level-2 strategies once; they are
	// unknown names now.
	unknown := []string{"bogus", "roundrobin", "maxqueue"}
	for _, s := range unknown {
		if err := eng.Run(hmts.RunConfig{Mode: hmts.ModeGTS, Strategy: s}); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
			t.Fatalf("Run with strategy %q: %v", s, err)
		}
	}
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})
	for _, s := range unknown {
		if err := eng.SwitchMode(hmts.ModeOTS, s); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
			t.Fatalf("SwitchMode with strategy %q: %v", s, err)
		}
	}
	done := make(chan struct{})
	go func() {
		eng.Wait()
		out.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("engine wedged after a refused SwitchMode")
	}
	els := out.Elements()
	if len(els) != n/2 {
		t.Fatalf("got %d results, want %d", len(els), n/2)
	}
	for i, e := range els {
		if e.Key != int64(2*i) || e.Val != float64(20*i) {
			t.Fatalf("result %d = key %d val %v, want key %d val %d", i, e.Key, e.Val, 2*i, 20*i)
		}
	}
}

// TestExplainDuringAddQuery polls Explain while AddQuery splices queries
// into the running engine. Explain walks the graph and re-derives every
// node's rate, so it must hold the engine lock the splice holds (go test
// -race catches the unsynchronized version).
func TestExplainDuringAddQuery(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("src", hmts.GenerateStamped(200_000, 1e6, hmts.SeqKeys()).Batched(64))
	query := func(i int) func() (*hmts.Stream, error) {
		return func() (*hmts.Stream, error) {
			return src.Where("even", func(e hmts.Element) bool { return e.Key%2 == 0 }).
				Where(fmt.Sprintf("k%d", i), func(e hmts.Element) bool { return e.Key%10 == int64(i) }), nil
		}
	}
	if err := eng.AddQuery("q0", newMemSink(), query(0)); err != nil {
		t.Fatal(err)
	}
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if s := eng.Explain(); !strings.Contains(s, "VO{") {
					t.Errorf("Explain of a running engine lists no VO:\n%s", s)
					return
				}
			}
		}
	}()
	for i := 1; i < 10; i++ {
		if err := eng.AddQuery(fmt.Sprintf("q%d", i), newMemSink(), query(i)); err != nil {
			t.Fatalf("AddQuery q%d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	eng.Wait()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}
