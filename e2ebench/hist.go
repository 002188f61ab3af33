package main

import "math/bits"

// subBits sets the histogram's resolution: values below 2^subBits get one
// bucket each, larger ones 2^(subBits-1) buckets per power of two, so a
// bucket spans at most 1/64 of its lower bound.
const subBits = 7

// histBuckets covers values up to 2^41 ns (about 36 minutes); larger
// values are clamped into the last bucket.
const histBuckets = (41-subBits+1)<<(subBits-1) + 1<<(subBits-1)

// Hist is a fixed-bucket log-linear histogram of non-negative int64
// values (nanoseconds here). Record never allocates, so a sink can record
// every element at a million elements per second without feeding the GC —
// appending samples to a slice did, and it showed up in the tail. It is
// not safe for concurrent use; callers serialise or keep one per goroutine
// and Merge.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

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

// Merge adds every sample of o.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.n }

// Max returns the largest sample exactly.
func (h *Hist) Max() int64 { return h.max }

// Quantile returns the q-quantile (0..1) of the samples, interpolating
// linearly inside the bucket that holds the target rank so the result is
// not snapped to bucket edges. It returns 0 for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo, w := bucketRange(i)
			v := float64(lo) + float64(w)*(rank-float64(cum)+0.5)/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum += c
	}
	return float64(h.max)
}
