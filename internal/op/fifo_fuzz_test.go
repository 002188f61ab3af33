package op

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// FuzzFifo checks the ring against a plain slice. The fuzzer's integers
// seed the operation sequence, bound its length and bias it between
// pushes and pops, so runs both grow the ring while it is wrapped and
// drain it across the wrap point. Each step is a push, pop, popBack,
// front, back or each; after every step the contents must match the
// slice and every slot outside the live range must be zero (pop and
// popBack release what they vacate).
func FuzzFifo(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint16(500), uint8(128))
	f.Add(uint64(9), uint64(0), uint16(4000), uint8(200))
	f.Add(uint64(3), uint64(5), uint16(3000), uint8(100))
	f.Fuzz(func(t *testing.T, seed1, seed2 uint64, steps uint16, bias uint8) {
		rng := rand.New(rand.NewPCG(seed1, seed2))
		var q fifo[int]
		var want []int
		next := 0
		for step := 0; step < int(steps%8192); step++ {
			switch op := rng.IntN(256); {
			case op < int(bias)/2+64: // push: 25–75 % of steps
				next++
				q.push(next)
				want = append(want, next)
			case len(want) == 0:
			case op < 200:
				if got := q.pop(); got != want[0] {
					t.Fatalf("step %d: pop = %d, want %d", step, got, want[0])
				}
				want = want[1:]
			case op < 225:
				q.popBack()
				want = want[:len(want)-1]
			case op < 235:
				if q.front() != want[0] {
					t.Fatalf("step %d: front = %d, want %d", step, q.front(), want[0])
				}
			case op < 245:
				if q.back() != want[len(want)-1] {
					t.Fatalf("step %d: back = %d, want %d", step, q.back(), want[len(want)-1])
				}
			default:
				var got []int
				q.each(func(v int) { got = append(got, v) })
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: each = %v, want %v", step, got, want)
				}
			}
			if q.len() != len(want) || q.empty() != (len(want) == 0) {
				t.Fatalf("step %d: len %d empty %v, want %d", step, q.len(), q.empty(), len(want))
			}
			live := 0
			for i, v := range q.buf {
				if (i-q.head+len(q.buf))&(len(q.buf)-1) < q.n {
					live++
				} else if v != 0 {
					t.Fatalf("step %d: dead slot %d holds %d", step, i, v)
				}
			}
			if live != len(want) {
				t.Fatalf("step %d: %d live slots, want %d", step, live, len(want))
			}
		}
		var got []int
		q.each(func(v int) { got = append(got, v) })
		if !slices.Equal(got, want) {
			t.Fatalf("final each = %v, want %v", got, want)
		}
	})
}
