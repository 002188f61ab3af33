package op

import (
	"testing"
	"time"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/xrand"
)

// TestTopKZeroAlloc locks the TopK hot path to zero allocations: the
// candidate buffer, the swapped in-top sets and the emit scratch are all
// reused, so once warmed up, folding an element in (including expiry and
// top-set churn) must not allocate.
func TestTopKZeroAlloc(t *testing.T) {
	k := NewTopK("t", 8, int64(time.Millisecond))
	k.Subscribe(&Null{}, 0)
	rng := xrand.New(1)
	one := make([]stream.Element, 1)
	var ts int64
	feed := func(n int) {
		for i := 0; i < n; i++ {
			ts += 1000
			one[0] = stream.Element{TS: ts, Key: rng.Int64n(64)}
			k.ProcessBatch(0, one)
		}
	}
	feed(4096) // warm up: window filled, maps and buffers at steady size
	if avg := testing.AllocsPerRun(1000, func() { feed(1) }); avg != 0 {
		t.Fatalf("TopK.ProcessBatch allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestWindowAggExpiryZeroAlloc locks the grouped window-aggregate expiry
// path to zero steady-state allocations across many groups — each group's
// window ring reuses its backing array once warmed.
func TestWindowAggExpiryZeroAlloc(t *testing.T) {
	const groups = 10_000
	const dt = 100
	a := NewWindowAgg("a", AggSum, int64(2*groups*dt), func(e stream.Element) int64 { return e.Key })
	a.Subscribe(NewNull(1), 0)
	one := make([]stream.Element, 1)
	var ts int64
	var i int
	feed := func(n int) {
		for j := 0; j < n; j++ {
			ts += dt
			one[0] = stream.Element{TS: ts, Key: int64(i % groups), Val: 1}
			a.ProcessBatch(0, one)
			i++
		}
	}
	feed(4 * groups) // reach steady state: every group's ring warmed
	if avg := testing.AllocsPerRun(1000, func() { feed(1) }); avg != 0 {
		t.Fatalf("WindowAgg.ProcessBatch allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestWindowAggRandomKeysZeroAlloc locks a steady grouped time window to
// zero allocations when keys arrive in random order: a group its window
// empties stays in the map for reuse, so a returning key allocates no new
// group (the window holds about 630 of 1000 keys here).
func TestWindowAggRandomKeysZeroAlloc(t *testing.T) {
	feed := groupedCountFeed(time.Millisecond)
	feed(3 * 1000 / 64) // three windows
	if avg := testing.AllocsPerRun(100, func() { feed(1) }); avg != 0 {
		t.Fatalf("grouped WindowAgg allocates %.2f per batch of 64 at random keys, want 0", avg)
	}
}
