package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistQuantilesMatchExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 1000, 100_000} {
		var h Hist
		xs := make([]int64, n)
		for i := range xs {
			// Log-uniform over 0 .. 2^40: every bucket regime.
			xs[i] = int64(math.Exp2(rng.Float64()*40)) - 1
			h.Record(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			// Quantile reports the value at rank floor(q*(n-1)), placed
			// within its bucket, so it is off by less than that bucket's
			// width.
			exact := xs[int(q*float64(n-1))]
			_, w := bucketRange(bucketOf(exact))
			if got := h.Quantile(q); math.Abs(got-float64(exact)) >= float64(w) {
				t.Errorf("n=%d q=%v: got %v, exact %d (bucket width %d)", n, q, got, exact, w)
			}
		}
		if h.Max() != xs[n-1] || h.Count() != uint64(n) {
			t.Errorf("n=%d: max %d count %d, want %d %d", n, h.Max(), h.Count(), xs[n-1], n)
		}
	}
}

func TestHistSmallValuesExact(t *testing.T) {
	var h Hist
	xs := make([]int64, 0, 3*128)
	for v := int64(0); v < 128; v++ {
		for k := int64(0); k < v%3+1; k++ {
			h.Record(v)
			xs = append(xs, v)
		}
	}
	if h.Count() != uint64(len(xs)) || h.Max() != 127 {
		t.Fatalf("count %d max %d, want %d 127", h.Count(), h.Max(), len(xs))
	}
	// Below 2^subBits every value has its own bucket, so the quantile's
	// integer part is the exact order statistic.
	for q := 0.0; q <= 1; q += 0.01 {
		if got, want := int64(h.Quantile(q)), xs[int(q*float64(len(xs)-1))]; got != want {
			t.Fatalf("q=%v: got %d, want %d", q, got, want)
		}
	}
	if h.Quantile(0) != 0 || h.Quantile(1) != 127 {
		t.Fatalf("q0=%v q1=%v, want 0 and 127", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistLargeStreamQuantiles(t *testing.T) {
	var h Hist
	const n = 100_000
	for i := int64(0); i < n; i++ {
		h.Record(i)
	}
	if h.Count() != n {
		t.Fatalf("count %d", h.Count())
	}
	// Every value counts, so the median is off by the bucket resolution
	// (1/64) only, not by sampling error.
	if med := h.Quantile(0.5); math.Abs(med-n/2) > n/2/64 {
		t.Fatalf("median %v far from %v", med, n/2)
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 || empty.Count() != 0 {
		t.Fatal("empty histogram should read zero")
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	for idx := 1; idx < histBuckets; idx++ {
		lo, w := bucketRange(idx)
		plo, pw := bucketRange(idx - 1)
		if plo+pw != lo {
			t.Fatalf("bucket %d starts at %d, previous ends at %d", idx, lo, plo+pw)
		}
		if bucketOf(lo) != idx || bucketOf(lo+w-1) != idx {
			t.Fatalf("bucket %d [%d,%d) does not map back", idx, lo, lo+w)
		}
		if idx >= 1<<subBits && w*64 > lo {
			t.Fatalf("bucket %d [%d,%d) spans more than 1/64 of its lower bound", idx, lo, lo+w)
		}
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	h := new(Hist)
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v = v*3 + 1 }); n != 0 {
		t.Fatalf("Record allocates %v times per call", n)
	}
}

func TestHistOutOfRange(t *testing.T) {
	var h Hist
	h.Record(-5)
	if h.counts[0] != 1 || h.Max() != 0 {
		t.Fatalf("negative value: bucket 0 holds %d, max %d", h.counts[0], h.Max())
	}
	// Values past 2^41 share the last bucket, but Max stays exact.
	huge := int64(1)<<50 + 3
	h.Record(1 << 42)
	h.Record(huge)
	if h.counts[histBuckets-1] != 2 {
		t.Fatalf("last bucket holds %d, want the 2 clamped values", h.counts[histBuckets-1])
	}
	if h.Max() != huge || h.Count() != 3 {
		t.Fatalf("max %d count %d, want %d 3", h.Max(), h.Count(), huge)
	}
	if bucketOf(math.MaxInt64) != histBuckets-1 {
		t.Fatal("MaxInt64 is not clamped into the last bucket")
	}
}
