package ingest

import (
	"math/rand/v2"
	"testing"

	"github.com/dsms/hmts/internal/stream"
)

// FuzzBuffer checks the ring against a plain slice model on one
// goroutine. The fuzzer's integers pick the capacity (1–17), seed the
// operation sequence and bound its length; each step is a Push, a
// PushBatch of k, a PopWait into a scratch slice of m, a SetPolicy or
// (rarely) a Close. A Block push that would wait for space is skipped,
// and a PopWait on an empty open buffer is aborted through its stop
// channel. After every step the order of what pops, Accepted, Dropped,
// Len and MaxLen must match the model, and every element pushed with a
// zero timestamp must pop stamped with a time taken during its push.
// Both rings are walked too: the elements against the model, and their
// admission times against the clock bounds of their push.
func FuzzBuffer(f *testing.F) {
	f.Add(uint8(3), uint64(1), uint64(2), uint16(200))
	f.Add(uint8(0), uint64(7), uint64(0), uint16(50))
	f.Add(uint8(16), uint64(42), uint64(9), uint16(1000))
	f.Fuzz(func(t *testing.T, capByte uint8, seed1, seed2 uint64, steps uint16) {
		capacity := int(capByte%17) + 1
		rng := rand.New(rand.NewPCG(seed1, seed2))
		b := NewBuffer(capacity, Policy(rng.IntN(3)))

		// want is the model's contents: pushed elements, keyed by a
		// running id, with the clock bounds of the push that admitted a
		// zero-timestamp one.
		type entry struct {
			e      stream.Element
			lo, hi int64
		}
		var want []entry
		var accepted, dropped uint64
		maxLen := 0
		closed := false
		nextKey := int64(0)
		stopped := make(chan struct{})
		close(stopped)
		scratch := make([]stream.Element, 2*capacity+2)

		mk := func(k int) []stream.Element {
			es := make([]stream.Element, k)
			for i := range es {
				nextKey++
				es[i] = stream.Element{Key: nextKey, Val: float64(nextKey)}
				if rng.IntN(3) > 0 {
					es[i].TS = nextKey
				}
			}
			return es
		}
		// admit appends es to the model, keeping only the newest capacity
		// elements (DropOldest evicts the rest).
		admit := func(es []stream.Element, lo, hi int64) {
			for _, e := range es {
				want = append(want, entry{e, lo, hi})
			}
			maxLen = max(maxLen, min(len(want), capacity))
			if over := len(want) - capacity; over > 0 {
				want = want[over:]
			}
		}

		for step := 0; step < int(steps%2048); step++ {
			switch op := rng.IntN(20); {
			case op < 6: // Push
				es := mk(1)
				full := len(want) == capacity
				if !closed && full && b.Policy() == Block {
					continue
				}
				lo := Now()
				ok := b.Push(es[0])
				hi := Now()
				switch {
				case closed, full && b.Policy() == DropNewest:
					if ok {
						t.Fatalf("step %d: Push admitted into a closed or full DropNewest buffer", step)
					}
					dropped++
				default:
					if !ok {
						t.Fatalf("step %d: Push rejected with room or under DropOldest", step)
					}
					if full {
						dropped++
					}
					accepted++
					admit(es, lo, hi)
				}
			case op < 12: // PushBatch of k
				es := mk(rng.IntN(2*capacity + 2))
				free := capacity - len(want)
				if !closed && len(es) > free && b.Policy() == Block {
					continue
				}
				lo := Now()
				got := b.PushBatch(es)
				hi := Now()
				n, kept := len(es), es
				switch {
				case closed:
					n, kept = 0, nil
					dropped += uint64(len(es))
				case b.Policy() == DropNewest && len(es) > free:
					n, kept = free, es[:free]
					dropped += uint64(len(es) - free)
				case len(es) > free: // DropOldest: every element past free evicts or is evicted
					n = free + min(len(es)-free, capacity)
					dropped += uint64(len(es) - free)
				}
				if got != n {
					t.Fatalf("step %d: PushBatch(%d) admitted %d, want %d", step, len(es), got, n)
				}
				accepted += uint64(n)
				admit(kept, lo, hi)
			case op < 17: // PopWait into m
				m := rng.IntN(len(scratch) + 1)
				n, open := b.PopWait(scratch[:m], stopped)
				if len(want) == 0 {
					if n != 0 || open {
						t.Fatalf("step %d: PopWait on empty buffer = (%d, %v)", step, n, open)
					}
					continue
				}
				if take := min(m, len(want)); n != take || !open {
					t.Fatalf("step %d: PopWait(%d) = (%d, %v), want (%d, true)", step, m, n, open, take)
				}
				for i, got := range scratch[:n] {
					w := want[i]
					if got.Key != w.e.Key || got.Val != w.e.Val {
						t.Fatalf("step %d: pop %d is key %d, want %d", step, i, got.Key, w.e.Key)
					}
					if w.e.TS != 0 && got.TS != w.e.TS {
						t.Fatalf("step %d: key %d TS %d, pushed with %d", step, got.Key, got.TS, w.e.TS)
					}
					if w.e.TS == 0 && (got.TS < w.lo || got.TS > w.hi || got.TS == 0) {
						t.Fatalf("step %d: key %d stamped %d outside its push [%d, %d]", step, got.Key, got.TS, w.lo, w.hi)
					}
				}
				want = want[n:]
			case op < 19:
				b.SetPolicy(Policy(rng.IntN(3)))
			default:
				if rng.IntN(4) == 0 {
					b.Close()
					closed = true
				}
			}
			st := b.Stats()
			if b.Len() != len(want) || st.Len != len(want) || st.MaxLen != maxLen ||
				b.Accepted() != accepted || b.Dropped() != dropped || st.Closed != closed {
				t.Fatalf("step %d: Len %d MaxLen %d Accepted %d Dropped %d Closed %v, want %d %d %d %d %v",
					step, b.Len(), st.MaxLen, b.Accepted(), b.Dropped(), st.Closed, len(want), maxLen, accepted, dropped, closed)
			}
			if len(want) == 0 && st.LagNS != 0 {
				t.Fatalf("step %d: lag %d on an empty buffer", step, st.LagNS)
			}
			// The rings themselves: elems holds the model's elements in
			// order, and at the admission time of each one's push.
			i := 0
			b.elems.Each(func(e stream.Element) {
				if i >= len(want) || e.Key != want[i].e.Key {
					t.Fatalf("step %d: ring element %d is key %d, not the model's", step, i, e.Key)
				}
				i++
			})
			i = 0
			b.at.Each(func(at int64) {
				if i >= len(want) || at < want[i].lo || at > want[i].hi {
					t.Fatalf("step %d: element %d admitted at %d outside its push", step, i, at)
				}
				i++
			})
			if b.elems.Len() != len(want) || b.at.Len() != len(want) {
				t.Fatalf("step %d: rings hold %d elements and %d times, want %d", step, b.elems.Len(), b.at.Len(), len(want))
			}
		}
	})
}
