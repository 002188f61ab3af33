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

// topKReference is the rescanning TopK the incremental one replaced: on
// every arrival it expires the window, ranks every key in it by (count
// desc, key asc), and emits the keys of the new top k that were not in the
// previous one, in rank order.
type topKReference struct {
	k      int
	window int64
	order  []stream.Element
	counts map[int64]int64
	inTop  map[int64]bool
}

func (r *topKReference) step(e stream.Element) []stream.Element {
	for len(r.order) > 0 && r.order[0].TS <= e.TS-r.window {
		key := r.order[0].Key
		r.order = r.order[1:]
		if r.counts[key]--; r.counts[key] == 0 {
			delete(r.counts, key)
		}
	}
	r.counts[e.Key]++
	r.order = append(r.order, e)
	keys := make([]int64, 0, len(r.counts))
	for key := range r.counts {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		if ca, cb := r.counts[keys[a]], r.counts[keys[b]]; ca != cb {
			return ca > cb
		}
		return keys[a] < keys[b]
	})
	if len(keys) > r.k {
		keys = keys[:r.k]
	}
	var out []stream.Element
	top := make(map[int64]bool, len(keys))
	for _, key := range keys {
		top[key] = true
		if !r.inTop[key] {
			out = append(out, stream.Element{TS: e.TS, Key: key, Val: float64(r.counts[key]), Seq: e.Seq})
		}
	}
	r.inTop = top
	return out
}

// TestTopKEmissionsMatchReference checks the incremental top-k set against
// the rescanning reference, emission for emission, over random streams
// with several k, key counts and windows, including time jumps that empty
// the window and duplicate timestamps that expire many elements at once.
func TestTopKEmissionsMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		rng := xrand.New(seed)
		k := []int{1, 2, 3, 8}[seed%4]
		keys := []int64{1, 5, 20, 200}[seed/4%4]
		window := []int64{10, 100, 1000}[seed%3]
		tk := NewTopK("t", k, window)
		c := &captureSink{}
		tk.Subscribe(c, 0)
		ref := &topKReference{k: k, window: window, counts: map[int64]int64{}, inTop: map[int64]bool{}}
		var want []stream.Element
		var ts int64
		for i := 0; i < 3000; i++ {
			switch r := rng.Int64n(100); {
			case r == 0:
				ts += 2 * window
			case r < 20: // same timestamp
			default:
				ts += rng.Int64n(window/10 + 1)
			}
			e := stream.Element{TS: ts, Key: rng.Int64n(keys), Seq: uint64(i)}
			want = append(want, ref.step(e)...)
			testutil.Push(tk, 0, e)
			if i%100 == 0 {
				checkTopK(t, tk)
			}
		}
		if len(c.got) != len(want) {
			t.Fatalf("seed %d (k=%d keys=%d window=%d): %d emissions, want %d", seed, k, keys, window, len(c.got), len(want))
		}
		for i := range want {
			if c.got[i] != want[i] {
				t.Fatalf("seed %d (k=%d keys=%d window=%d): emission %d = %v, want %v", seed, k, keys, window, i, c.got[i], want[i])
			}
		}
		checkTopK(t, tk)
	}
}

// checkTopK verifies TopK's index: the set is in rank order and every key
// outside it sits in the bucket of its count, at its recorded place, and
// ranks below the set's last member; the counts add up to the window.
func checkTopK(t *testing.T, tk *TopK) {
	t.Helper()
	var total int64
	for _, s := range tk.keys {
		total += s.count
		if s.count <= 0 {
			t.Fatalf("key %d kept with count %d", s.key, s.count)
		}
		if s.inTop {
			if tk.top[s.pos] != s {
				t.Fatalf("key %d not at its place %d in the set", s.key, s.pos)
			}
			continue
		}
		if h := tk.buckets[s.count].h; s.pos >= len(h) || h[s.pos] != s {
			t.Fatalf("key %d not at its place in bucket %d", s.key, s.count)
		}
		if len(tk.top) < tk.k || above(s, tk.top[len(tk.top)-1]) {
			t.Fatalf("key %d (count %d) outside a set it ranks into", s.key, s.count)
		}
	}
	if total != int64(tk.order.Len()) {
		t.Fatalf("counts total %d, window holds %d", total, tk.order.Len())
	}
	for i := 1; i < len(tk.top); i++ {
		if !above(tk.top[i-1], tk.top[i]) {
			t.Fatalf("set out of rank order at %d", i)
		}
	}
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
