package sched

import "math/bits"

// This file holds the small index structures the strategies build their
// incrementally maintained ready-sets from: an intrusive binary heap over
// unit indices and a fixed-size bitset. Both are allocation-free after
// construction — the executor hot path (Pick + Update per queue event)
// must not allocate.

// unitHeap is an indexed binary heap over unit indices: membership,
// repositioning and removal by unit index are O(log n) via the pos map.
// The ordering is supplied by the owning strategy as a less func over unit
// indices, so one implementation serves FIFO's front-TS heap and Chain's
// per-bucket heaps alike.
type unitHeap struct {
	less func(a, b int) bool
	heap []int // unit indices, heap-ordered
	pos  []int // unit index -> slot in heap, -1 when absent
}

// initHeap sizes the heap for n units, all initially absent.
func (h *unitHeap) initHeap(n int, less func(a, b int) bool) {
	h.less = less
	h.heap = h.heap[:0]
	if cap(h.heap) < n {
		h.heap = make([]int, 0, n)
	}
	h.pos = make([]int, n)
	for i := range h.pos {
		h.pos[i] = -1
	}
}

// size returns the number of units in the heap.
func (h *unitHeap) size() int { return len(h.heap) }

// top returns the best unit, or -1 when the heap is empty.
func (h *unitHeap) top() int {
	if len(h.heap) == 0 {
		return -1
	}
	return h.heap[0]
}

// push inserts unit u (which must be absent).
func (h *unitHeap) push(u int) {
	h.heap = append(h.heap, u)
	h.pos[u] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

// remove deletes unit u if present.
func (h *unitHeap) remove(u int) {
	i := h.pos[u]
	if i < 0 {
		return
	}
	last := len(h.heap) - 1
	h.swap(i, last)
	h.heap = h.heap[:last]
	h.pos[u] = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

// fix repositions unit u after its key changed; inserts it if absent.
func (h *unitHeap) fix(u int) {
	i := h.pos[u]
	if i < 0 {
		h.push(u)
		return
	}
	h.down(i)
	h.up(i)
}

func (h *unitHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *unitHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *unitHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(h.heap[l], h.heap[best]) {
			best = l
		}
		if r < n && h.less(h.heap[r], h.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// bitset is a fixed-capacity set of small integers with O(words) scans.
type bitset struct {
	words []uint64
}

func (b *bitset) initSet(n int) {
	b.words = make([]uint64, (n+63)/64)
}

func (b *bitset) set(i int) {
	b.words[i>>6] |= uint64(1) << (uint(i) & 63)
}

func (b *bitset) clear(i int) {
	b.words[i>>6] &^= uint64(1) << (uint(i) & 63)
}

// first returns the smallest member, or -1 when empty.
func (b *bitset) first() int {
	for w, word := range b.words {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}
