package op

import (
	"sync/atomic"

	"github.com/dsms/hmts/internal/ring"
	"github.com/dsms/hmts/internal/stream"
)

// TopK tracks the k most frequent keys within a sliding time window and
// emits an element whenever a key enters the top-k set (Key = the entering
// key, Val = its current in-window count, TS = the triggering element).
// It is the classic "heavy hitters" monitoring operator; the intrusion
// example uses it to surface the busiest hosts.
//
// Keys rank by count, most frequent first, ties by ascending key. Every
// arrival or expiry moves one key's count by one, so the top-k set is
// kept current from that one change: a key outside the set can only enter
// by beating the set's last member, and a member that drops can only be
// passed by the best key outside, which holds its old count or one less.
// Keys outside the set sit in count buckets, each a min-heap by key, so
// that key is found without looking at the others: an element costs
// O(k + log n) for n keys in the window, not O(n).
//
// Event time must be nondecreasing.
type TopK struct {
	Base
	k      int
	window int64
	keys   map[int64]*topKey
	order  ring.Ring[stream.Element]
	// top is the top-k set in rank order.
	top []*topKey
	// buckets[c] holds the keys outside the set with count c.
	buckets []keyHeap
	// tick numbers the arrivals; a key's mark is the tick in which it
	// first changed membership, and wasTop its membership before.
	tick    uint64
	changed bool
	zeroed  []*topKey // keys whose count fell to 0 this arrival
	free    []*topKey // dropped keys, for reuse
	heldPub atomic.Int64
}

// topKey is one key's in-window count and its place: an index into
// TopK.top when inTop, else into its count bucket.
type topKey struct {
	key    int64
	count  int64
	pos    int
	inTop  bool
	wasTop bool
	mark   uint64
}

// above reports whether a ranks above b.
func above(a, b *topKey) bool {
	return a.count > b.count || a.count == b.count && a.key < b.key
}

// NewTopK returns a top-k tracker over a time window in nanoseconds.
func NewTopK(name string, k int, window int64) *TopK {
	if k < 1 {
		panic("op: TopK needs k >= 1")
	}
	if window <= 0 {
		panic("op: TopK window must be positive")
	}
	t := &TopK{
		k:      k,
		window: window,
		keys:   make(map[int64]*topKey),
		top:    make([]*topKey, 0, k),
	}
	t.InitBase(name, 1)
	return t
}

// Top returns the current top-k keys, most frequent first (ties by
// ascending key). The returned slice is the caller's to keep.
func (t *TopK) Top() []int64 {
	top := make([]int64, len(t.top))
	for i, s := range t.top {
		top[i] = s.key
	}
	return top
}

// note records s's membership before its first change in this arrival.
func (t *TopK) note(s *topKey) {
	if s.mark != t.tick {
		s.mark, s.wasTop = t.tick, s.inTop
	}
	t.changed = true
}

// setTop stores s at index i of the top set.
func (t *TopK) setTop(i int, s *topKey) {
	t.top[i] = s
	s.pos = i
}

// raise moves top member s up past the members it now ranks above.
func (t *TopK) raise(s *topKey) {
	i := s.pos
	for ; i > 0 && above(s, t.top[i-1]); i-- {
		t.setTop(i, t.top[i-1])
	}
	t.setTop(i, s)
}

// bucket returns the bucket of keys outside the set with count c.
func (t *TopK) bucket(c int64) *keyHeap {
	for int64(len(t.buckets)) <= c {
		t.buckets = append(t.buckets, keyHeap{})
	}
	return &t.buckets[c]
}

// inc counts one more element of s into the window.
func (t *TopK) inc(s *topKey) {
	s.count++
	if s.inTop {
		t.raise(s)
		return
	}
	if s.count > 1 {
		t.bucket(s.count - 1).remove(s)
	}
	if len(t.top) < t.k {
		t.note(s)
		s.inTop, s.pos = true, len(t.top)
		t.top = append(t.top, s)
		t.raise(s)
		return
	}
	last := t.top[t.k-1]
	if !above(s, last) {
		t.bucket(s.count).push(s)
		return
	}
	t.note(s)
	t.note(last)
	last.inTop = false
	t.bucket(last.count).push(last)
	s.inTop, s.pos = true, t.k-1
	t.top[t.k-1] = s
	t.raise(s)
}

// dec counts one element of s out of the window.
func (t *TopK) dec(s *topKey) {
	c := s.count
	s.count--
	if s.count == 0 {
		t.zeroed = append(t.zeroed, s)
	}
	if !s.inTop {
		t.bucket(c).remove(s)
		if s.count > 0 {
			t.bucket(s.count).push(s)
		}
		return
	}
	// Sink s past the members it now ranks below.
	i := s.pos
	for ; i+1 < len(t.top) && above(t.top[i+1], s); i++ {
		t.setTop(i, t.top[i+1])
	}
	t.setTop(i, s)
	if i+1 < len(t.top) {
		return // members still rank below s, so every outside key does
	}
	// s is last. Every key outside ranked below s at count c: one with
	// count c now ranks above it, as does one with count c-1 and a
	// smaller key. The bucket heaps give the smallest key of each.
	var b *topKey
	if h := t.bucket(c); h.len() > 0 {
		b = h.min()
	} else if s.count > 0 {
		if h := t.bucket(s.count); h.len() > 0 && h.min().key < s.key {
			b = h.min()
		}
	}
	switch {
	case b != nil:
		t.note(s)
		t.note(b)
		t.bucket(b.count).remove(b)
		b.inTop, b.pos = true, i
		t.top[i] = b
		s.inTop = false
		if s.count > 0 {
			t.bucket(s.count).push(s)
		}
	case s.count == 0:
		t.note(s)
		s.inTop = false
		t.top = t.top[:i]
	}
}

// step folds one element into the window counts and appends an element to
// out for every key newly entering the top-k set, in rank order.
func (t *TopK) step(e stream.Element, out []stream.Element) []stream.Element {
	t.tick++
	t.changed = false
	deadline := e.TS - t.window
	for t.order.Len() > 0 && t.order.Front().TS <= deadline {
		t.dec(t.keys[t.order.Pop().Key])
	}
	s := t.keys[e.Key]
	if s == nil {
		if n := len(t.free); n > 0 {
			s, t.free = t.free[n-1], t.free[:n-1]
			*s = topKey{}
		} else {
			s = new(topKey)
		}
		s.key = e.Key
		t.keys[e.Key] = s
	}
	t.inc(s)
	t.order.Push(stream.Element{TS: e.TS, Key: e.Key, Seq: e.Seq})

	// Keys the expiries emptied are dropped only now: the arriving key
	// may be one of them, and its mark must survive to the emission test.
	for _, z := range t.zeroed {
		if z.count == 0 {
			delete(t.keys, z.key)
			t.free = append(t.free, z)
		}
	}
	t.zeroed = t.zeroed[:0]
	if !t.changed {
		return out
	}
	for _, s := range t.top {
		if s.mark == t.tick && !s.wasTop {
			out = append(out, stream.Element{TS: e.TS, Key: s.key, Val: float64(s.count), Seq: e.Seq})
		}
	}
	return out
}

// ExportShardState implements ShardState: the count markers still in the
// window, already in arrival (= Seq) order. Note that under sharding TopK
// has per-shard semantics: each replica surfaces the heavy hitters of its
// key partition, not a global top-k.
func (t *TopK) ExportShardState() []PortedElement {
	pes := make([]PortedElement, 0, t.order.Len())
	t.order.Each(func(e stream.Element) { pes = append(pes, PortedElement{E: e}) })
	return pes
}

// RetainedRows reports the count markers currently in the window — the
// state a reshard must port. Safe to read while an executor is processing.
func (t *TopK) RetainedRows() int { return int(t.heldPub.Load()) }

// ImportShardElement implements ShardState: replay one marker, rebuilding
// counts and the in-top set without emitting.
func (t *TopK) ImportShardElement(_ int, e stream.Element) {
	out := t.step(e, t.scratch(t.k))
	t.obuf = out[:0]
	t.heldPub.Store(int64(t.order.Len()))
}

// ProcessBatch implements Sink: entering-key notifications accumulate
// across the batch and leave in one fan-out dispatch.
func (t *TopK) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	t.BeginWorkBatch(es)
	out := t.scratch(len(es))
	for _, e := range es {
		out = t.step(e, out)
	}
	t.heldPub.Store(int64(t.order.Len()))
	t.flush(out)
	t.EndWorkBatch()
}

// Done implements Sink.
func (t *TopK) Done(port int) {
	if t.MarkDone(port) {
		t.Close()
	}
}

// keyHeap is a min-heap of keys by key value; each key's pos is its index.
type keyHeap struct{ h []*topKey }

func (h *keyHeap) len() int { return len(h.h) }

func (h *keyHeap) min() *topKey { return h.h[0] }

func (h *keyHeap) push(s *topKey) {
	s.pos = len(h.h)
	h.h = append(h.h, s)
	h.up(s.pos)
}

// remove takes s out of the heap.
func (h *keyHeap) remove(s *topKey) {
	i, n := s.pos, len(h.h)-1
	if i != n {
		h.swap(i, n)
	}
	h.h[n] = nil
	h.h = h.h[:n]
	if i != n {
		h.down(i)
		h.up(i)
	}
}

func (h *keyHeap) swap(i, j int) {
	h.h[i], h.h[j] = h.h[j], h.h[i]
	h.h[i].pos, h.h[j].pos = i, j
}

func (h *keyHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.h[p].key <= h.h[i].key {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *keyHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h.h) {
			return
		}
		m := l
		if r := l + 1; r < len(h.h) && h.h[r].key < h.h[l].key {
			m = r
		}
		if h.h[i].key <= h.h[m].key {
			return
		}
		h.swap(i, m)
		i = m
	}
}
