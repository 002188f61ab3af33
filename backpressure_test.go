package hmts_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/testutil"
)

// wedgeSink is a memSink whose first delivery blocks until release is
// closed, so everything upstream of it backs up deterministically.
type wedgeSink struct {
	*memSink
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newWedgeSink() *wedgeSink {
	return &wedgeSink{memSink: newMemSink(), entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *wedgeSink) Process(port int, e hmts.Element) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	w.memSink.Process(port, e)
}

// backpressured is a running pure-DI engine whose source thread drives a
// shared prefix "pos" fused with the split of a sharded running sum
// ("sum", two replicas) and with the churn filters; the bounded queues
// behind the split are full because the sum's sink is wedged.
type backpressured struct {
	eng    *hmts.Engine
	ext    *hmts.ExternalSource
	sum    *wedgeSink
	churn  []*memSink
	inputs []hmts.Element
	pushed chan struct{} // closed once every input was pushed
}

const (
	bpBound  = 1024
	bpInputs = 40_000
	bpChurn  = 3
)

// bpKey is the grouping and routing key of the sharded sum.
func bpKey(e hmts.Element) int64 { return e.Key }

func startBackpressured(t *testing.T) *backpressured {
	t.Helper()
	b := &backpressured{
		eng:    hmts.New(),
		ext:    hmts.External("in", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 256}),
		sum:    newWedgeSink(),
		pushed: make(chan struct{}),
	}
	src := b.eng.Source("in", b.ext.Spec())
	pos := func() *hmts.Stream { return src.Where("pos", func(e hmts.Element) bool { return e.Val >= 0 }) }
	if err := b.eng.AddQuery("sum", b.sum, func() (*hmts.Stream, error) {
		return pos().Aggregate("sum", hmts.Sum, time.Hour, bpKey).Shard(2), nil
	}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < bpChurn; j++ {
		j := j
		s := newMemSink()
		b.churn = append(b.churn, s)
		if err := b.eng.AddQuery(fmt.Sprintf("churn%d", j), s, func() (*hmts.Stream, error) {
			return pos().Where(fmt.Sprintf("k%d", j), func(e hmts.Element) bool { return e.Key%bpChurn == int64(j) }), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < bpInputs; i++ {
		b.inputs = append(b.inputs, hmts.Element{TS: hmts.Time(i+1) * 1000, Key: int64(i*7) % 64, Val: float64(i % 10)})
	}
	b.eng.MustRun(hmts.RunConfig{Mode: hmts.ModePureDI, QueueBound: bpBound})
	go func() {
		defer close(b.pushed)
		for _, e := range b.inputs {
			if !b.ext.Push(e) {
				t.Errorf("push rejected under Block policy")
				return
			}
		}
	}()
	return b
}

// waitParked waits until the wedge holds the sum's sink and the source
// thread has waited for space on a full queue behind the split.
func (b *backpressured) waitParked(t *testing.T) {
	t.Helper()
	<-b.sum.entered
	deadline := time.Now().Add(20 * time.Second)
	for {
		for _, q := range b.eng.Metrics().Queues {
			if strings.HasPrefix(q.Name, "q(sum/split->") && q.FullBlocks > 0 && q.Len >= bpBound {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("the source never waited on a full split queue: %+v", b.eng.Metrics().Queues)
		}
		time.Sleep(time.Millisecond)
	}
}

// mutate runs fn while the source is parked and releases the wedge once
// the mutation is under way (it has to halt the wedged executor).
func (b *backpressured) mutate(t *testing.T, what string, fn func() error) {
	t.Helper()
	b.waitParked(t)
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	time.Sleep(20 * time.Millisecond) // let the mutation reach its halt
	close(b.sum.release)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s deadlocked behind the parked source", what)
	}
}

// finish drains the run and checks the sum and every churn query still
// standing against plain-Go references over the same inputs.
func (b *backpressured) finish(t *testing.T, dropped map[int]bool) {
	t.Helper()
	<-b.pushed
	b.ext.Close()
	done := make(chan struct{})
	go func() { b.eng.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("engine never drained")
	}
	if err := b.eng.Err(); err != nil {
		t.Fatalf("engine failed: %v", err)
	}
	sums := make(map[int64]float64)
	var want []hmts.Element
	for _, e := range b.inputs {
		sums[e.Key] += e.Val
		want = append(want, hmts.Element{TS: e.TS, Key: e.Key, Val: sums[e.Key]})
	}
	b.sum.wait(t)
	checkElements(t, "sum", b.sum.memSink, want)
	for j, s := range b.churn {
		if dropped[j] {
			continue
		}
		var want []hmts.Element
		for _, e := range b.inputs {
			if e.Key%bpChurn == int64(j) {
				want = append(want, e)
			}
		}
		s.wait(t)
		checkElements(t, fmt.Sprintf("churn%d", j), s, want)
	}
}

func checkElements(t *testing.T, name string, s *memSink, want []hmts.Element) {
	t.Helper()
	got, done, after := s.snapshot()
	if done != 1 || after != 0 {
		t.Fatalf("%s: done=%d afterDone=%d", name, done, after)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].TS != want[i].TS || got[i].Key != want[i].Key || got[i].Val != want[i].Val {
			t.Fatalf("%s: result %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestBackpressuredDropQuery drops one subscriber of a fused shared prefix
// while the source thread is held up by a full queue behind the prefix.
// The source used to park inside the prefix's fan-out loop and resume it
// after the drop had shortened the edge list (a fail-stop with "index out
// of range"); now it waits only before it enters the prefix, and every
// remaining query's output is exact.
func TestBackpressuredDropQuery(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	b := startBackpressured(t)
	b.mutate(t, "DropQuery", func() error { return b.eng.DropQuery("churn0") })
	b.finish(t, map[int]bool{0: true})
}

// TestBackpressuredReshardGrow grows the sharded sum from two replicas to
// three while the source thread is held up by a full queue behind the
// split. The source used to park inside Split.ProcessBatch and resume its
// per-shard loop after the reshard had rebuilt the routing table, so
// elements bucketed for two shards reached the replicas of three (a
// fail-stop, or a key on a replica that does not own it and a wrong sum);
// now the sum equals the plain-Go reference.
func TestBackpressuredReshardGrow(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	b := startBackpressured(t)
	b.mutate(t, "Reshard", func() error { return b.eng.Reshard("sum", 3) })
	b.finish(t, nil)
	for _, s := range b.eng.Metrics().Shards {
		if s.Name == "sum" && s.N != 3 {
			t.Fatalf("shard count after the reshard = %d, want 3", s.N)
		}
	}
}

// TestBackpressuredDiamond runs a diamond under HMTS with bounded queues:
// p feeds a cheap branch a and a costly branch b, and a Union j joins
// them. Placement used to fuse p, a and j into the source's VO and give b
// its own, so that VO fed itself through b's two queues; once both were
// full, the VO's executor waited for b to drain and b for the VO's
// executor, and the run hung after a few hundred elements. Placement now
// never fuses both ends of a path through another VO, and every element
// arrives.
func TestBackpressuredDiamond(t *testing.T) {
	const n = 50_000
	eng := hmts.New()
	src := eng.Source("src", hmts.GenerateStamped(n, 100_000, hmts.SeqKeys()).Batched(64))
	p := src.Where("p", func(hmts.Element) bool { return true }).Hint(100, 1)
	a := p.Where("a", func(hmts.Element) bool { return true }).Hint(100, 1)
	b := p.Map("b", func(e hmts.Element) hmts.Element { e.Val++; return e }).Hint(8000, 1)
	out := a.Union("j", b).CountSink("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS, QueueBound: 64})
	done := make(chan struct{})
	go func() {
		eng.Wait()
		out.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("diamond hung after %d of %d results:\n%s", out.Count(), 2*n, eng.Explain())
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if got := out.Count(); got != 2*n {
		t.Fatalf("got %d results, want %d", got, 2*n)
	}
}

// TestBackpressuredStallMixBranchOrder: a source feeding a cheap filter
// and two branches hinted ten times its load gets the same plan in
// whichever order the branches are declared: the filter rides in the
// source's VO and each costly branch gets its own queue, so the filter
// never waits behind them. Under bounded queues every result arrives.
func TestBackpressuredStallMixBranchOrder(t *testing.T) {
	const n = 20_000
	for cheapAt := 0; cheapAt <= 2; cheapAt++ {
		eng := hmts.New()
		src := eng.Source("src", hmts.GenerateStamped(n, 200_000, hmts.SeqKeys()).Batched(64))
		var outs []*hmts.Counter
		costly := 0
		for i := 0; i < 3; i++ {
			if i == cheapAt {
				outs = append(outs, src.Where("cheap", func(e hmts.Element) bool { return e.Key%2 == 0 }).CountSink("cheap-out"))
				continue
			}
			name := fmt.Sprintf("costly%d", costly)
			costly++
			outs = append(outs, src.Map(name, func(e hmts.Element) hmts.Element { return e }).Hint(2000, 1).CountSink(name+"-out"))
		}
		eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS, QueueBound: 64})
		var queues []string
		for _, q := range eng.Metrics().Queues {
			queues = append(queues, q.Name)
		}
		if want := "q(src->costly0) q(src->costly1)"; strings.Join(queues, " ") != want {
			t.Fatalf("cheap filter declared %d of 3: queues %v, want %s\n%s", cheapAt+1, queues, want, eng.Explain())
		}
		eng.Wait()
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			out.Wait()
			want := uint64(n)
			if i == cheapAt {
				want = n / 2
			}
			if got := out.Count(); got != want {
				t.Fatalf("cheap filter declared %d of 3: sink %d got %d results, want %d", cheapAt+1, i, got, want)
			}
		}
	}
}
