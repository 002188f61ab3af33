// Package ring provides the FIFO behind every element buffer in the
// engine: the ingress buffer of an external source, the decoupling queue
// between virtual operators, and the window state of DI operators.
package ring

import "math/bits"

// Ring is a FIFO over a power-of-two slice. A full ring doubles, copying
// its live values once, and Grow sizes it ahead of need; otherwise no
// value ever moves, so a buffer in steady state pushes and pops within one
// stable array and allocates nothing. Values move one at a time (Push,
// Pop, PopBack) or in runs (Append, Extend, CopyOut, Discard); a run
// occupies at most two chunks, one either side of the wrap point. Every
// vacated slot is zeroed, so a ring does not pin what it held for the GC.
// The zero Ring is empty and ready to use. A Ring is not safe for
// concurrent use.
type Ring[T any] struct {
	buf     []T // len(buf) is zero or a power of two
	head, n int
}

// Len returns the number of values held.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the number of slots in the backing array.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Front returns the oldest value; the ring must not be empty.
func (r *Ring[T]) Front() T { return r.buf[r.head] }

// Back returns the newest value; the ring must not be empty.
func (r *Ring[T]) Back() T { return r.buf[r.slot(r.n-1)] }

// slot returns the index in buf of the i-th oldest value.
func (r *Ring[T]) slot(i int) int { return (r.head + i) & (len(r.buf) - 1) }

// runs returns the k slots from the i-th oldest value on as at most two
// contiguous chunks, in order; i+k must not exceed len(buf).
func (r *Ring[T]) runs(i, k int) (a, b []T) {
	start := r.slot(i)
	first := min(k, len(r.buf)-start)
	return r.buf[start : start+first], r.buf[:k-first]
}

// grow moves the values to a new backing array of size slots, a power of
// two larger than the old one. Copying the old array from head on unwraps
// the live values to the front; the slots after them are zero, as every
// vacated slot is.
func (r *Ring[T]) grow(size int) {
	bigger := make([]T, size)
	copy(bigger[copy(bigger, r.buf[r.head:]):], r.buf[:r.head])
	r.buf, r.head = bigger, 0
}

// Grow makes room for k more values with at most one allocation: a ring
// too small for them grows to the smallest power of two that holds them,
// at least double its size (and at least 8).
func (r *Ring[T]) Grow(k int) {
	if need := r.n + k; need > len(r.buf) {
		r.grow(max(2*len(r.buf), 8, 1<<bits.Len(uint(need-1))))
	}
}

// Push adds v at the back.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow(max(2*r.n, 8))
	}
	r.buf[r.slot(r.n)] = v
	r.n++
}

// Pop removes and returns the oldest value; the ring must not be empty.
func (r *Ring[T]) Pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = r.slot(1)
	r.n--
	return v
}

// PopBack drops the newest value; the ring must not be empty.
func (r *Ring[T]) PopBack() {
	var zero T
	r.n--
	r.buf[r.slot(r.n)] = zero
}

// Each calls fn on every value, oldest first.
func (r *Ring[T]) Each(fn func(T)) {
	first := min(r.n, len(r.buf)-r.head)
	for _, v := range r.buf[r.head : r.head+first] {
		fn(v)
	}
	for _, v := range r.buf[:r.n-first] {
		fn(v)
	}
}

// Extend adds k zero values at the back and returns their slots, oldest
// first, as at most two chunks for the caller to fill.
func (r *Ring[T]) Extend(k int) (a, b []T) {
	r.Grow(k)
	a, b = r.runs(r.n, k)
	r.n += k
	return a, b
}

// Append adds vs at the back, in order.
func (r *Ring[T]) Append(vs []T) {
	a, b := r.Extend(len(vs))
	copy(b, vs[copy(a, vs):])
}

// CopyOut copies the oldest min(len(dst), Len()) values into dst, oldest
// first, and returns how many it copied. The ring is unchanged.
func (r *Ring[T]) CopyOut(dst []T) int {
	a, b := r.runs(0, min(len(dst), r.n))
	m := copy(dst, a)
	return m + copy(dst[m:], b)
}

// Discard removes the k oldest values, zeroing their slots; k must not
// exceed Len.
func (r *Ring[T]) Discard(k int) {
	a, b := r.runs(0, k)
	clear(a)
	clear(b)
	r.head = r.slot(k)
	r.n -= k
}
