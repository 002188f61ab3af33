package op

import (
	"math"
	"testing"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/testutil"
	"github.com/dsms/hmts/internal/xrand"
)

// TestWindowAggIdleGroupExpiry pins the semantics the expiry ring must
// preserve: a group that stops receiving elements is still expired and
// deleted by arrivals on other groups, because expiry is driven by the
// global event clock, not per-group activity.
func TestWindowAggIdleGroupExpiry(t *testing.T) {
	a := NewWindowAgg("a", AggSum, 100, func(e stream.Element) int64 { return e.Key })
	a.Subscribe(NewNull(1), 0)
	testutil.Push(a, 0, stream.Element{TS: 0, Key: 1, Val: 5})
	testutil.Push(a, 0, stream.Element{TS: 10, Key: 2, Val: 7})
	if got := a.GroupCount(); got != 2 {
		t.Fatalf("GroupCount = %d, want 2", got)
	}
	// Key 1 goes idle; an arrival on key 2 far past the window must expire
	// and delete it without any key-1 traffic.
	testutil.Push(a, 0, stream.Element{TS: 500, Key: 2, Val: 1})
	if got := a.GroupCount(); got != 1 {
		t.Fatalf("GroupCount = %d after idle-group deadline, want 1", got)
	}
	if got := a.WindowLen(); got != 1 {
		t.Fatalf("WindowLen = %d, want 1", got)
	}
}

// TestWindowAggMatchesBruteForce checks the ring-driven expiry against a
// naive reference that recomputes every aggregate from the set of in-window
// elements on each arrival — independent of the window and deque rings.
func TestWindowAggMatchesBruteForce(t *testing.T) {
	const window = 300
	kinds := []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			group := func(e stream.Element) int64 { return e.Key % 8 }
			a := NewWindowAgg("a", kind, window, group)
			cap1 := &captureSink{}
			a.Subscribe(cap1, 0)

			rng := xrand.New(42)
			var ts int64
			var all []stream.Element
			for i := 0; i < 2000; i++ {
				ts += rng.Int64n(25)
				e := stream.Element{TS: ts, Key: rng.Int64n(64), Val: float64(rng.Int64n(1000)) - 500}
				all = append(all, e)
				testutil.Push(a, 0, e)

				key := e.Key % 8
				want := bruteAgg(kind, timeWindow(all, group, key, ts-window))
				got := cap1.got[len(cap1.got)-1]
				if got.Key != key || got.TS != ts {
					t.Fatalf("element %d: emitted (TS=%d,Key=%d), want (TS=%d,Key=%d)", i, got.TS, got.Key, ts, key)
				}
				if math.Abs(got.Val-want) > 1e-6 {
					t.Fatalf("element %d (%s): got %v, want %v", i, kind, got.Val, want)
				}
			}
			// Cross-check state size against the brute-force window too.
			live := 0
			for _, e := range all {
				if e.TS > ts-window {
					live++
				}
			}
			if got := a.WindowLen(); got != live {
				t.Fatalf("WindowLen = %d, want %d", got, live)
			}
		})
	}
}

// TestWindowAggSweepsEmptiedGroups churns many keys through a short time
// window, so emptied groups pile up and are swept out of the map again: a
// new key leaves the map within its bound, the ring stays consistent, and
// every emission still matches the brute-force reference, also for keys
// whose group was swept and created anew.
func TestWindowAggSweepsEmptiedGroups(t *testing.T) {
	const window = 20
	for _, kind := range []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		group := func(e stream.Element) int64 { return e.Key }
		a := NewWindowAgg("a", kind, window, group)
		c := &captureSink{}
		a.Subscribe(c, 0)
		rng := xrand.New(3)
		var ts int64
		var all []stream.Element
		swept := false
		for i := 0; i < 3000; i++ {
			ts += rng.Int64n(4)
			e := stream.Element{TS: ts, Key: rng.Int64n(500), Val: float64(rng.Int64n(100)) - 50}
			all = append(all, e)
			before := len(a.groups)
			_, known := a.groups[e.Key]
			testutil.Push(a, 0, e)
			swept = swept || len(a.groups) < before
			if !known && len(a.groups) > 2*a.held+sweepMin {
				t.Fatalf("%s: a new key left %d groups for %d held elements", kind, len(a.groups), a.held)
			}
			want := bruteAgg(kind, timeWindow(all, group, e.Key, ts-window))
			if got := c.got[i].Val; !sameAgg(got, want) {
				t.Fatalf("%s: element %d = %v, want %v", kind, i, got, want)
			}
		}
		checkRing(t, a)
		if !swept {
			t.Fatalf("%s: no sweep in 3000 elements over 500 keys", kind)
		}
	}
}

// timeWindow returns the values of group key's elements with TS > deadline,
// the contents of a time window.
func timeWindow(all []stream.Element, group func(stream.Element) int64, key, deadline int64) []float64 {
	var vals []float64
	for _, e := range all {
		if group(e) == key && e.TS > deadline {
			vals = append(vals, e.Val)
		}
	}
	return vals
}

// bruteAgg recomputes an aggregate from scratch over a window's values, the
// reference semantics: SUM and AVG are the IEEE sum over every value, MIN
// and MAX ignore NaN (and are NaN when only NaN is left), and an empty
// window aggregates to 0.
func bruteAgg(kind AggKind, vals []float64) float64 {
	var sum float64
	min, max := math.Inf(1), math.Inf(-1)
	comparable := 0
	for _, v := range vals {
		sum += v
		if math.IsNaN(v) {
			continue
		}
		comparable++
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	switch {
	case kind == AggCount:
		return float64(len(vals))
	case len(vals) == 0:
		return 0
	case kind == AggSum:
		return sum
	case kind == AggAvg:
		return sum / float64(len(vals))
	case comparable == 0:
		return math.NaN()
	case kind == AggMin:
		return min
	case kind == AggMax:
		return max
	}
	panic("unknown kind")
}

// sameAgg reports whether an emitted aggregate equals the reference's,
// counting NaN as equal to NaN.
func sameAgg(got, want float64) bool {
	return got == want || math.IsNaN(got) && math.IsNaN(want)
}

// TestWindowAggNonFiniteLeavesWindow is the regression test for values
// that once poisoned a group for as long as it stayed non-empty. A NaN never
// matched the min/max deque's front and so was never popped, and a running
// sum cannot subtract a NaN or an infinity back out: once the non-finite
// values have expired, every kind must report the remaining finite window.
// The same holds for finite values a plain running sum mishandles: a large
// value cancels the small ones added after it when it leaves, and finite
// values that overflow the sum to +Inf never subtract back out.
func TestWindowAggNonFiniteLeavesWindow(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		in   []stream.Element
		want map[AggKind][]float64
	}{
		{
			name: "non-finite",
			in: []stream.Element{
				{TS: 0, Val: inf}, {TS: 10, Val: 5}, {TS: 20, Val: -inf}, {TS: 30, Val: nan},
				{TS: 150, Val: 7}, // deadline 50: everything above has expired
				{TS: 160, Val: 3},
				{TS: 400, Val: nan}, // a window of only NaN
			},
			want: map[AggKind][]float64{
				AggCount: {1, 2, 3, 4, 1, 2, 1},
				AggSum:   {inf, inf, nan, nan, 7, 10, nan},
				AggAvg:   {inf, inf, nan, nan, 7, 5, nan},
				AggMin:   {inf, 5, -inf, -inf, 7, 3, nan},
				AggMax:   {inf, inf, inf, inf, 7, 7, nan},
			},
		},
		{
			name: "cancellation",
			in:   []stream.Element{{TS: 0, Val: 1e16}, {TS: 10, Val: 1}, {TS: 105, Val: 2}},
			want: map[AggKind][]float64{
				AggCount: {1, 2, 2},
				AggSum:   {1e16, 1e16 + 1, 3},
				AggAvg:   {1e16, (1e16 + 1) / 2, 1.5},
				AggMin:   {1e16, 1, 1},
				AggMax:   {1e16, 1e16, 2},
			},
		},
		{
			name: "overflow",
			in:   []stream.Element{{TS: 0, Val: 1e308}, {TS: 10, Val: 1e308}, {TS: 105, Val: 1}},
			want: map[AggKind][]float64{
				AggCount: {1, 2, 2},
				AggSum:   {1e308, inf, 1e308},
				AggAvg:   {1e308, inf, 1e308 / 2},
				AggMin:   {1e308, 1e308, 1},
				AggMax:   {1e308, 1e308, 1e308},
			},
		},
	}
	for _, tc := range cases {
		for kind, w := range tc.want {
			a := NewWindowAgg("a", kind, 100, nil)
			c := &captureSink{}
			a.Subscribe(c, 0)
			for _, e := range tc.in {
				testutil.Push(a, 0, e)
			}
			if len(c.got) != len(w) {
				t.Fatalf("%s %s: %d emissions, want %d", tc.name, kind, len(c.got), len(w))
			}
			for i, e := range c.got {
				if !sameAgg(e.Val, w[i]) {
					t.Errorf("%s %s: emission %d = %v, want %v", tc.name, kind, i, e.Val, w[i])
				}
			}
		}
	}
}

// TestWindowAggGroupedOverflowResum covers the re-sum over the shared
// ring: two groups interleave values near MaxFloat64 in one time window.
// Group 1's finite values overflow its sum to +Inf; once the overflow has
// expired it must read its remaining window again, re-summed from its own
// ring entries only. Group 2's Sum and Avg stay exact throughout, although
// its elements sit between group 1's in the ring.
func TestWindowAggGroupedOverflowResum(t *testing.T) {
	big1, big2, inf := 1e308, 1.5e308, math.Inf(1)
	in := []stream.Element{
		{TS: 0, Key: 1, Val: big1},
		{TS: 10, Key: 2, Val: big2},
		{TS: 20, Key: 1, Val: big1}, // group 1 overflows
		{TS: 30, Key: 2, Val: 2},
		{TS: 40, Key: 1, Val: 3},
		{TS: 105, Key: 2, Val: 4}, // expires group 1's first big1: re-sum
		{TS: 115, Key: 2, Val: 5}, // expires group 2's big2
		{TS: 116, Key: 1, Val: 7}, // group 1 has recovered
		{TS: 125, Key: 1, Val: 1}, // expires group 1's second big1
		{TS: 126, Key: 2, Val: 1},
	}
	want := map[AggKind][]float64{
		AggSum: {big1, big2, inf, big2 + 2, inf, big2 + 2 + 4, 11, big1 + 3 + 7, 11, 12},
		AggAvg: {big1, big2, inf, (big2 + 2) / 2, inf, (big2 + 2 + 4) / 3, 11.0 / 3, (big1 + 3 + 7) / 3, 11.0 / 3, 3},
	}
	for kind, w := range want {
		a := NewWindowAgg("a", kind, 100, func(e stream.Element) int64 { return e.Key })
		c := &captureSink{}
		a.Subscribe(c, 0)
		for i, e := range in {
			testutil.Push(a, 0, e)
			checkRing(t, a)
			if got := c.got[i]; got.Key != e.Key || got.Val != w[i] {
				t.Errorf("%s: emission %d = (Key=%d,Val=%v), want (Key=%d,Val=%v)", kind, i, got.Key, got.Val, e.Key, w[i])
			}
		}
	}
}

// TestWindowAggRingInvariant stresses churn across many groups and checks
// the expiry ring stays consistent with the group windows.
func TestWindowAggRingInvariant(t *testing.T) {
	a := NewWindowAgg("a", AggMax, 200, func(e stream.Element) int64 { return e.Key })
	a.Subscribe(NewNull(1), 0)
	rng := xrand.New(7)
	var ts int64
	for i := 0; i < 5000; i++ {
		ts += rng.Int64n(30)
		testutil.Push(a, 0, stream.Element{TS: ts, Key: rng.Int64n(200), Val: float64(i)})
		if i%250 == 0 {
			checkRing(t, a)
		}
	}
	checkRing(t, a)
}

// checkRing verifies the time window's arrival-order ring against the
// groups: it has one entry per held element, in nondecreasing TS order;
// every entry's group is the live group for its key; and every group has
// exactly as many entries as its count.
func checkRing(t *testing.T, a *WindowAgg) {
	t.Helper()
	if a.ring.Len() != a.held {
		t.Fatalf("ring has %d entries, %d held elements", a.ring.Len(), a.held)
	}
	seen := make(map[*aggState]int64)
	last := int64(math.MinInt64)
	a.ring.Each(func(h held) {
		if key := a.group(h.e); a.groups[key] != h.g {
			t.Fatalf("ring entry is not the live group for key %d", key)
		}
		if h.e.TS < last {
			t.Fatalf("ring out of TS order: %d after %d", h.e.TS, last)
		}
		last = h.e.TS
		seen[h.g]++
	})
	live := 0
	for key, g := range a.groups {
		if seen[g] != g.count {
			t.Fatalf("group %d: %d ring entries, count %d", key, seen[g], g.count)
		}
		if g.count > 0 {
			live++
		}
	}
	if live != a.GroupCount() {
		t.Fatalf("GroupCount = %d, %d groups hold elements", a.GroupCount(), live)
	}
}

// FuzzWindowAgg drives every aggregate kind, over time and ROWS windows,
// from raw fuzz bytes and checks each emission against bruteAgg over the
// recomputed window. The header picks the kind, the window and the group
// cardinality (1–64); each element then takes four bytes: key, timestamp
// gap (0 repeats the timestamp; large gaps empty whole windows), value
// (NaN, ±Inf or a small integer, so sums are exact) and a cut byte that
// ends the current chunk and decides whether the next chunk is delivered
// as batches of one or as one batch.
func FuzzWindowAgg(f *testing.F) {
	f.Add([]byte{0, 10, 3, 1, 2, 3, 0, 4, 5, 6, 1})
	f.Add([]byte{1, 41, 7, 9, 0, 255, 2, 9, 1, 5, 0, 9, 250, 7, 3})
	f.Add([]byte{3, 7, 0, 0, 0, 254, 0, 0, 0, 253, 1, 0, 0, 255, 2, 0, 1, 100, 3})
	f.Add([]byte{4, 6, 63, 5, 3, 200, 1, 6, 3, 255, 0, 5, 3, 100, 2, 6, 244, 1, 1})
	f.Add([]byte{2, 200, 2, 1, 1, 254, 0, 0, 1, 253, 1, 1, 1, 4, 0, 0, 0, 9, 3})
	f.Add([]byte{1, 40, 0, 0, 1, 254, 0, 0, 1, 253, 0, 0, 1, 130, 0, 0, 250, 127, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		kind := AggKind(data[0] % 5)
		var window int64
		rows := 0
		if data[1]&1 == 0 {
			window = int64(data[1]>>1) + 1
		} else {
			rows = int(data[1]>>1)%8 + 1
		}
		groups := int64(data[2]%64) + 1
		data = data[3:]
		if len(data) > 4*512 {
			data = data[:4*512]
		}

		group := func(e stream.Element) int64 { return e.Key % groups }
		var a *WindowAgg
		if rows > 0 {
			a = NewCountWindowAgg("a", kind, rows, group)
		} else {
			a = NewWindowAgg("a", kind, window, group)
		}
		c := &captureSink{}
		a.Subscribe(c, 0)

		var in []stream.Element
		var chunk []stream.Element
		batched := false
		deliver := func() {
			if batched {
				a.ProcessBatch(0, chunk)
			} else {
				for _, e := range chunk {
					testutil.Push(a, 0, e)
				}
			}
			chunk = chunk[:0]
		}
		var ts int64
		for i := 0; i+3 < len(data); i += 4 {
			gap := int64(data[i+1] % 8)
			if data[i+1] >= 240 {
				gap = int64(data[i+1]) // jump past any time window
			}
			ts += gap
			e := stream.Element{TS: ts, Key: int64(data[i]), Val: fuzzVal(data[i+2])}
			in = append(in, e)
			chunk = append(chunk, e)
			if cut := data[i+3]; cut&1 == 1 {
				deliver()
				batched = cut&2 == 2
			}
		}
		deliver()

		if len(c.got) != len(in) {
			t.Fatalf("%d inputs, %d emissions", len(in), len(c.got))
		}
		for i, e := range in {
			key := group(e)
			var vals []float64
			if rows > 0 {
				for j := i; j >= 0 && len(vals) < rows; j-- {
					if group(in[j]) == key {
						vals = append(vals, in[j].Val)
					}
				}
			} else {
				vals = timeWindow(in[:i+1], group, key, e.TS-window)
			}
			want := bruteAgg(kind, vals)
			got := c.got[i]
			if got.TS != e.TS || got.Key != key || !sameAgg(got.Val, want) {
				t.Fatalf("%s rows=%d window=%d groups=%d: emission %d = (TS=%d,Key=%d,Val=%v), want (TS=%d,Key=%d,Val=%v)",
					kind, rows, window, groups, i, got.TS, got.Key, got.Val, e.TS, key, want)
			}
		}
		if rows > 0 {
			if a.ring.Len() != 0 {
				t.Fatalf("ROWS window left %d entries in the expiry ring", a.ring.Len())
			}
			return
		}
		checkRing(t, a)
		if len(in) == 0 {
			return
		}
		live := make(map[int64]int)
		for _, e := range in {
			if e.TS > ts-window {
				live[group(e)]++
			}
		}
		if a.GroupCount() != len(live) {
			t.Fatalf("GroupCount = %d, want %d groups with in-window elements", a.GroupCount(), len(live))
		}
	})
}

// fuzzVal maps a fuzz byte to an aggregate input: the three non-finite
// values, or an integer in [-126, 126].
func fuzzVal(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	}
	return float64(int(b) - 126)
}
