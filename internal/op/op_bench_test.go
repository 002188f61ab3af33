package op

import (
	"fmt"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/xrand"
)

// benchSink is a zero-cost terminal.
type benchSink struct{ n int }

func (b *benchSink) ProcessBatch(_ int, es []stream.Element) { b.n += len(es) }
func (b *benchSink) Done(int)                                {}

// The per-operator benches deliver every element as a batch of one — the
// path a source takes when a single element is ready — through one reused
// slice, so ns/op is the cost of one element arriving alone.

func BenchmarkFilter(b *testing.B) {
	f := NewFilter("f", func(e stream.Element) bool { return e.Key%2 == 0 })
	f.Subscribe(&benchSink{}, 0)
	one := make([]stream.Element, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one[0] = stream.Element{TS: int64(i), Key: int64(i)}
		f.ProcessBatch(0, one)
	}
}

func BenchmarkMap(b *testing.B) {
	m := NewMap("m", func(e stream.Element) stream.Element { e.Val++; return e })
	m.Subscribe(&benchSink{}, 0)
	one := make([]stream.Element, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one[0] = stream.Element{TS: int64(i)}
		m.ProcessBatch(0, one)
	}
}

func BenchmarkChainDI5(b *testing.B) {
	// Five fused selections — the per-element cost of a virtual operator.
	head := NewFilter("f0", func(e stream.Element) bool { return true })
	prev := Operator(head)
	for i := 1; i < 5; i++ {
		f := NewFilter("f", func(e stream.Element) bool { return true })
		prev.Subscribe(f, 0)
		prev = f
	}
	prev.Subscribe(&benchSink{}, 0)
	one := make([]stream.Element, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one[0] = stream.Element{TS: int64(i), Key: int64(i)}
		head.ProcessBatch(0, one)
	}
}

func BenchmarkSHJ(b *testing.B) {
	j := NewSHJ("j", int64(time.Millisecond), nil)
	j.Subscribe(&benchSink{}, 0)
	rng := xrand.New(1)
	one := make([]stream.Element, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one[0] = stream.Element{TS: int64(i) * 1000, Key: rng.Int64n(512)}
		j.ProcessBatch(i&1, one)
	}
}

func BenchmarkSNJ(b *testing.B) {
	j := NewSNJ("j", int64(100*time.Microsecond), nil, nil)
	j.Subscribe(&benchSink{}, 0)
	rng := xrand.New(1)
	one := make([]stream.Element, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one[0] = stream.Element{TS: int64(i) * 1000, Key: rng.Int64n(64)}
		j.ProcessBatch(i&1, one)
	}
}

func BenchmarkWindowAggSum(b *testing.B) {
	a := NewWindowAgg("a", AggSum, int64(time.Millisecond), nil)
	a.Subscribe(&benchSink{}, 0)
	one := make([]stream.Element, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one[0] = stream.Element{TS: int64(i) * 1000, Val: float64(i & 127)}
		a.ProcessBatch(0, one)
	}
}

func BenchmarkWindowAggMaxGrouped(b *testing.B) {
	a := NewWindowAgg("a", AggMax, int64(time.Millisecond), func(e stream.Element) int64 { return e.Key })
	a.Subscribe(&benchSink{}, 0)
	one := make([]stream.Element, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one[0] = stream.Element{TS: int64(i) * 1000, Key: int64(i & 15), Val: float64(i & 127)}
		a.ProcessBatch(0, one)
	}
}

func BenchmarkDistinct(b *testing.B) {
	d := NewDistinct("d", int64(time.Millisecond))
	d.Subscribe(&benchSink{}, 0)
	one := make([]stream.Element, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one[0] = stream.Element{TS: int64(i) * 1000, Key: int64(i & 255)}
		d.ProcessBatch(0, one)
	}
}

// BenchmarkTopK tracks the top 8 of 64 and of 1000 random keys over a
// 1 ms window at 1 MHz. The set is kept current from the one count each
// arrival or expiry changes, so the figure must not grow with the keys.
func BenchmarkTopK(b *testing.B) {
	for _, keys := range []int64{64, 1000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			k := NewTopK("t", 8, int64(time.Millisecond))
			k.Subscribe(&benchSink{}, 0)
			rng := xrand.New(1)
			one := make([]stream.Element, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				one[0] = stream.Element{TS: int64(i) * 1000, Key: rng.Int64n(keys)}
				k.ProcessBatch(0, one)
			}
		})
	}
}

func BenchmarkThrottle(b *testing.B) {
	th := NewThrottle("t", 1e6, 64)
	th.Subscribe(&benchSink{}, 0)
	one := make([]stream.Element, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one[0] = stream.Element{TS: int64(i) * 500}
		th.ProcessBatch(0, one)
	}
}
