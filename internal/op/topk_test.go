package op

import (
	"sort"
	"testing"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/testutil"
	"github.com/dsms/hmts/internal/xrand"
)

func TestTopKTracksHeavyHitters(t *testing.T) {
	k := NewTopK("t", 2, 1000)
	c := NewCollector(1)
	k.Subscribe(c, 0)
	// Key 7 appears 5x, key 3 appears 3x, key 1 once.
	ts := int64(0)
	feed := []int64{7, 3, 7, 1, 7, 3, 7, 3, 7}
	for _, key := range feed {
		ts += 10
		testutil.Push(k, 0, stream.Element{TS: ts, Key: key})
	}
	top := k.Top()
	if len(top) != 2 || top[0] != 7 || top[1] != 3 {
		t.Fatalf("top = %v, want [7 3]", top)
	}
	k.Done(0)
	c.Wait()
	// Entry events: 7 and 3 fill the set; key 1 briefly ties key 3 and
	// displaces it (ascending-key tie-break), then 3 re-enters. The final
	// event must be 3's re-entry.
	entered := map[int64]int{}
	for _, e := range c.Elements() {
		entered[e.Key]++
	}
	if entered[7] != 1 || entered[3] != 2 || entered[1] != 1 {
		t.Fatalf("entry events: %v", c.Elements())
	}
	last := c.Elements()[c.Len()-1]
	if last.Key != 3 || last.Val != 2 {
		t.Fatalf("last entry event %v, want key 3 count 2", last)
	}
}

func TestTopKWindowExpiry(t *testing.T) {
	k := NewTopK("t", 1, 100)
	c := NewCollector(1)
	k.Subscribe(c, 0)
	testutil.Push(k, 0, stream.Element{TS: 0, Key: 1})
	testutil.Push(k, 0, stream.Element{TS: 10, Key: 1})
	testutil.Push(k, 0, stream.Element{TS: 20, Key: 2})
	if top := k.Top(); top[0] != 1 {
		t.Fatalf("top %v", top)
	}
	// After the window passes, key 2's fresh burst dominates.
	testutil.Push(k, 0, stream.Element{TS: 200, Key: 2})
	if top := k.Top(); top[0] != 2 {
		t.Fatalf("top after expiry %v", top)
	}
	k.Done(0)
	c.Wait()
}

func TestTopKAgainstBruteForce(t *testing.T) {
	rng := xrand.New(9)
	k := NewTopK("t", 3, 500)
	null := NewNull(1)
	k.Subscribe(null, 0)
	var live []stream.Element
	ts := int64(0)
	for i := 0; i < 2000; i++ {
		ts += rng.Int64n(20)
		e := stream.Element{TS: ts, Key: rng.Int64n(10)}
		testutil.Push(k, 0, e)
		live = append(live, e)
		// Brute-force window recomputation.
		counts := map[int64]int64{}
		for _, le := range live {
			if le.TS > ts-500 {
				counts[le.Key]++
			}
		}
		var keys []int64
		for key := range counts {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(a, b int) bool {
			if counts[keys[a]] != counts[keys[b]] {
				return counts[keys[a]] > counts[keys[b]]
			}
			return keys[a] < keys[b]
		})
		if len(keys) > 3 {
			keys = keys[:3]
		}
		got := k.Top()
		if len(got) != len(keys) {
			t.Fatalf("step %d: top size %d vs %d", i, len(got), len(keys))
		}
		for j := range keys {
			if got[j] != keys[j] {
				t.Fatalf("step %d: top %v, want %v", i, got, keys)
			}
		}
	}
	k.Done(0)
	null.Wait()
}

func TestThrottleShedsToRate(t *testing.T) {
	// 1000 elements over 1 virtual second at rate 100/s, burst 1:
	// roughly 100 pass.
	th := NewThrottle("t", 100, 1)
	c := NewCollector(1)
	th.Subscribe(c, 0)
	for i := 0; i < 1000; i++ {
		testutil.Push(th, 0, stream.Element{TS: int64(i) * 1_000_000, Key: int64(i)})
	}
	th.Done(0)
	c.Wait()
	got := c.Len()
	if got < 99 || got > 102 {
		t.Fatalf("passed %d, want ~100", got)
	}
	if th.Dropped() != uint64(1000-got) {
		t.Fatalf("dropped %d + passed %d != 1000", th.Dropped(), got)
	}
}

func TestThrottleBurst(t *testing.T) {
	th := NewThrottle("t", 10, 5)
	c := NewCollector(1)
	th.Subscribe(c, 0)
	// 5 elements at the same instant: all pass on the initial burst.
	for i := 0; i < 8; i++ {
		testutil.Push(th, 0, stream.Element{TS: 0, Key: int64(i)})
	}
	th.Done(0)
	c.Wait()
	if c.Len() != 5 {
		t.Fatalf("burst passed %d, want 5", c.Len())
	}
}

func TestThrottleIdlePeriodRefills(t *testing.T) {
	th := NewThrottle("t", 1000, 1)
	c := NewCollector(1)
	th.Subscribe(c, 0)
	testutil.Push(th, 0, stream.Element{TS: 0})
	testutil.Push(th, 0, stream.Element{TS: 100})       // shed: no tokens yet
	testutil.Push(th, 0, stream.Element{TS: 2_000_000}) // 2ms later: refilled
	th.Done(0)
	c.Wait()
	if c.Len() != 2 {
		t.Fatalf("passed %d, want 2", c.Len())
	}
}
