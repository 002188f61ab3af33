package ring

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// FuzzRing checks the ring against a plain slice. The fuzzer's integers
// seed the operation sequence, bound its length and bias it between
// adding and removing, so runs both grow the ring while it is wrapped and
// drain it across the wrap point. Each step is a Push, an Append or
// Extend of a run of up to twice the backing array or 67 values (so often
// longer than the free space), a Grow, a Pop, PopBack, Front, Back, Each,
// a CopyOut into a slice of any length, or a Discard. After every step the
// live slots must hold the slice's values in order, every other slot must
// be zero (removals release what they vacate), and the backing array must
// be a power of two no larger than twice the peak length, or than 8; a
// Grow's request counts toward the peak.
func FuzzRing(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint16(500), uint8(128))
	f.Add(uint64(9), uint64(0), uint16(4000), uint8(200))
	f.Add(uint64(3), uint64(5), uint16(3000), uint8(100))
	f.Add(uint64(4), uint64(4), uint16(2000), uint8(40))
	f.Fuzz(func(t *testing.T, seed1, seed2 uint64, steps uint16, bias uint8) {
		rng := rand.New(rand.NewPCG(seed1, seed2))
		var r Ring[int]
		var want []int
		next, peak := 0, 0
		run := func(k int) []int {
			vs := make([]int, k)
			for i := range vs {
				next++
				vs[i] = next
			}
			return vs
		}
		for step := 0; step < int(steps%8192); step++ {
			switch op := rng.IntN(256); {
			case op < int(bias)/4+32: // Push: 12–37 % of steps
				vs := run(1)
				r.Push(vs[0])
				want = append(want, vs...)
			case op < int(bias)/4+72: // a run
				vs := run(rng.IntN(min(2*r.Cap(), 64) + 4))
				if rng.IntN(2) == 0 {
					r.Append(vs)
				} else {
					a, b := r.Extend(len(vs))
					if len(a)+len(b) != len(vs) || slices.ContainsFunc(a, nonzero) || slices.ContainsFunc(b, nonzero) {
						t.Fatalf("step %d: Extend(%d) gave %d+%d slots, not all zero", step, len(vs), len(a), len(b))
					}
					copy(a, vs)
					copy(b, vs[len(a):])
				}
				want = append(want, vs...)
			case op < 136:
				k := rng.IntN(70)
				r.Grow(k)
				if peak = max(peak, len(want)+k); r.Cap() < len(want)+k {
					t.Fatalf("step %d: Grow(%d) left %d slots for %d values", step, k, r.Cap(), len(want)+k)
				}
			case op < 140:
				dst := make([]int, rng.IntN(len(want)+3))
				n := r.CopyOut(dst)
				if k := min(len(dst), len(want)); n != k || !slices.Equal(dst[:n], want[:k]) {
					t.Fatalf("step %d: CopyOut(%d) = %d %v, want %v", step, len(dst), n, dst[:n], want[:k])
				}
			case len(want) == 0:
			case op < 190:
				if got := r.Pop(); got != want[0] {
					t.Fatalf("step %d: Pop = %d, want %d", step, got, want[0])
				}
				want = want[1:]
			case op < 210:
				r.PopBack()
				want = want[:len(want)-1]
			case op < 230:
				k := rng.IntN(len(want) + 1)
				r.Discard(k)
				want = want[k:]
			case op < 240:
				if r.Front() != want[0] || r.Back() != want[len(want)-1] {
					t.Fatalf("step %d: Front %d Back %d, want %d %d", step, r.Front(), r.Back(), want[0], want[len(want)-1])
				}
			default:
				var got []int
				r.Each(func(v int) { got = append(got, v) })
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: Each = %v, want %v", step, got, want)
				}
			}
			peak = max(peak, len(want))
			if r.Len() != len(want) {
				t.Fatalf("step %d: Len %d, want %d", step, r.Len(), len(want))
			}
			if c := r.Cap(); c&(c-1) != 0 || c < peak || c > max(8, 2*peak) {
				t.Fatalf("step %d: backing array of %d for a peak of %d", step, c, peak)
			}
			for i, v := range r.buf {
				if j := (i - r.head) & (len(r.buf) - 1); j >= r.n {
					if v != 0 {
						t.Fatalf("step %d: dead slot %d holds %d", step, i, v)
					}
				} else if v != want[j] {
					t.Fatalf("step %d: slot %d holds %d, want %d", step, i, v, want[j])
				}
			}
		}
	})
}

func nonzero(v int) bool { return v != 0 }

// TestRingGrow checks that Grow on an empty ring allocates the smallest
// power of two, and at least 8, that holds the request.
func TestRingGrow(t *testing.T) {
	for k := 0; k <= 1100; k++ {
		var r Ring[int]
		r.Grow(k)
		want := 8
		for want < k {
			want *= 2
		}
		if k == 0 {
			want = 0
		}
		if r.Cap() != want {
			t.Fatalf("Grow(%d) on an empty ring gave %d slots, want %d", k, r.Cap(), want)
		}
	}
}
