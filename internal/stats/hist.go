package stats

import (
	"math"
	"math/bits"
)

// subBits sets the histogram's resolution: values below 2^subBits get one
// bucket each, larger ones 2^(subBits-1) buckets per power of two, so a
// bucket spans at most 1/64 of its lower bound.
const subBits = 7

// histBuckets covers values up to 2^41 ns (about 36 minutes); larger
// values are clamped into the last bucket.
const histBuckets = (41-subBits+1)<<(subBits-1) + 1<<(subBits-1)

// Hist is a fixed-bucket log-linear histogram of non-negative int64
// values, latencies in nanoseconds in practice. It is the one way the
// engine summarizes a latency distribution: Record never allocates and
// counts every value, so quantiles carry no sampling error, only the
// bucket resolution. It is not safe for concurrent use; callers serialise.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

// bucketOf returns the bucket holding v; negative values land in bucket 0.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 1<<subBits {
		return int(u)
	}
	shift := bits.Len64(u) - subBits
	idx := shift<<(subBits-1) + int(u>>shift)
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketRange returns the lower bound and width of bucket idx.
func bucketRange(idx int) (lo, width int64) {
	if idx < 1<<subBits {
		return int64(idx), 1
	}
	shift := idx>>(subBits-1) - 1
	m := int64(idx&(1<<(subBits-1)-1) + 1<<(subBits-1))
	return m << shift, 1 << shift
}

// Record adds one value.
func (h *Hist) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.n }

// Max returns the largest recorded value exactly, or 0 when empty.
func (h *Hist) Max() int64 { return h.max }

// Quantile returns the q-quantile (0..1) of the recorded values: the
// value at rank floor(q*(n-1)), placed linearly inside its bucket so the
// result is not snapped to bucket edges. The result lies in the bucket
// that holds that value, so values below 2^subBits read back exactly. It
// returns 0 when empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Max(0, math.Min(q, 1)) * float64(h.n-1))
	var cum uint64
	for i, c := range h.counts {
		if cum+c > rank {
			lo, w := bucketRange(i)
			v := lo + int64(float64(w)*(float64(rank-cum)+0.5)/float64(c))
			return float64(min(v, h.max))
		}
		cum += c
	}
	return float64(h.max)
}
