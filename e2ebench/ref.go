package main

import (
	"math"

	hmts "github.com/dsms/hmts"
)

// input describes one deterministic element stream. Element i has event
// time (i+1)*step, so the sink can recover i from an output's timestamp —
// every operator in the measured plans passes the input's timestamp
// through — and key and value drawn from a hash of (seed, i), so any
// element can be regenerated without storing the stream.
type input struct {
	seed uint64
	keys int64
	step int64 // event-time nanoseconds between consecutive elements
}

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// at returns element i. About three in four values are positive.
func (in input) at(i int) hmts.Element {
	h := mix64(in.seed*0x2545f4914f6cdd1d ^ uint64(i))
	return hmts.Element{
		TS:  hmts.Time(int64(i+1) * in.step),
		Key: int64(h % uint64(in.keys)),
		Val: float64(int64((h>>32)%1000) - 250),
	}
}

// fill writes elements first, first+1, ... into es.
func (in input) fill(es []hmts.Element, first int) {
	for j := range es {
		es[j] = in.at(first + j)
	}
}

// seqOf inverts the timestamp encoding of at.
func (in input) seqOf(ts hmts.Time) int { return int(int64(ts)/in.step) - 1 }

// digest is an order-insensitive summary of a result multiset: its size
// and the wrapping sum of a hash of each result.
type digest struct {
	n   uint64
	sum uint64
}

func (d *digest) add(ts, key int64, val float64) {
	d.n++
	d.sum += mix64(uint64(ts)*0x9e3779b97f4a7c15 ^ mix64(uint64(key)) ^ math.Float64bits(val)*0xc2b2ae3d27d4eb4f)
}

func positive(e hmts.Element) bool { return e.Val > 0 }

func scale(e hmts.Element) hmts.Element {
	e.Val *= 2
	return e
}

func byKey(e hmts.Element) int64 { return e.Key }

// refFiltered is the reference for a stateless filter path: the digest of
// the first n inputs that pass pred, unchanged.
func refFiltered(in input, n int, pred func(hmts.Element) bool) digest {
	var d digest
	for i := 0; i < n; i++ {
		if e := in.at(i); pred(e) {
			d.add(int64(e.TS), e.Key, e.Val)
		}
	}
	return d
}

// refWindowCount is the reference for filter(val > 0) → map → grouped
// sliding-window count: for every passing element, the number of passing
// elements with the same key whose event time lies in (ts-window, ts].
// Timestamps increase strictly, so one FIFO of timestamps per key is the
// whole window state.
func refWindowCount(in input, n int, window int64) digest {
	wins := make([][]int64, in.keys)
	heads := make([]int, in.keys)
	var d digest
	for i := 0; i < n; i++ {
		e := in.at(i)
		if !positive(e) {
			continue
		}
		e = scale(e)
		ts := int64(e.TS)
		w, h := wins[e.Key], heads[e.Key]
		for h < len(w) && w[h] <= ts-window {
			h++
		}
		if h > 1024 && h*2 > len(w) {
			w = append(w[:0], w[h:]...)
			h = 0
		}
		w = append(w, ts)
		wins[e.Key], heads[e.Key] = w, h
		d.add(ts, e.Key, float64(len(w)-h))
	}
	return d
}
