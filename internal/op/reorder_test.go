package op

import (
	"sort"
	"testing"
	"testing/quick"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/testutil"
	"github.com/dsms/hmts/internal/xrand"
)

func TestReorderSortsWithinSlack(t *testing.T) {
	r := NewReorder("r", 100)
	c := NewCollector(1)
	r.Subscribe(c, 0)
	for _, ts := range []int64{10, 50, 30, 20, 60, 40, 200, 150, 170} {
		testutil.Push(r, 0, stream.Element{TS: ts})
	}
	r.Done(0)
	c.Wait()
	els := c.Elements()
	if len(els) != 9 {
		t.Fatalf("lost elements: %d", len(els))
	}
	for i := 1; i < len(els); i++ {
		if els[i].TS < els[i-1].TS {
			t.Fatalf("order violated at %d: %v", i, els)
		}
	}
	if r.Late() != 0 {
		t.Fatalf("no element should be late, got %d", r.Late())
	}
}

func TestReorderEmitsOnlyBehindWatermark(t *testing.T) {
	r := NewReorder("r", 100)
	c := NewCollector(1)
	r.Subscribe(c, 0)
	testutil.Push(r, 0, stream.Element{TS: 10})
	testutil.Push(r, 0, stream.Element{TS: 50})
	if c.Len() != 0 {
		t.Fatal("emitted before the watermark passed")
	}
	testutil.Push(r, 0, stream.Element{TS: 160}) // watermark 60: releases 10 and 50
	if c.Len() != 2 {
		t.Fatalf("watermark release emitted %d, want 2", c.Len())
	}
	if r.Buffered() != 1 {
		t.Fatalf("buffered %d, want 1", r.Buffered())
	}
	r.Done(0)
	c.Wait()
	if c.Len() != 3 {
		t.Fatalf("flush lost elements: %d", c.Len())
	}
}

func TestReorderLatePassThrough(t *testing.T) {
	r := NewReorder("r", 10)
	c := NewCollector(1)
	r.Subscribe(c, 0)
	testutil.Push(r, 0, stream.Element{TS: 1000})
	testutil.Push(r, 0, stream.Element{TS: 5}) // hopelessly late
	if r.Late() != 1 {
		t.Fatalf("late count %d", r.Late())
	}
	r.Done(0)
	c.Wait()
	if c.Len() != 2 {
		t.Fatalf("late element dropped: %d", c.Len())
	}
}

// Property: Reorder conserves the multiset, and with slack covering the
// full disorder the output is perfectly sorted.
func TestReorderProperty(t *testing.T) {
	rng := xrand.New(5)
	if err := quick.Check(func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		// Build a stream with bounded disorder <= 64.
		els := make([]stream.Element, len(raw))
		base := int64(0)
		for i, v := range raw {
			base += int64(v % 16)
			els[i] = stream.Element{TS: base + rng.Int64n(64) - 32, Key: int64(i)}
			if els[i].TS < 0 {
				els[i].TS = 0
			}
		}
		r := NewReorder("r", 130) // > 2*32 + max gap
		c := NewCollector(1)
		r.Subscribe(c, 0)
		for _, e := range els {
			testutil.Push(r, 0, e)
		}
		r.Done(0)
		c.Wait()
		got := c.Elements()
		if len(got) != len(els) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].TS < got[i-1].TS {
				return false
			}
		}
		// Multiset equality via sorted key lists.
		a := make([]int64, len(els))
		b := make([]int64, len(els))
		for i := range els {
			a[i], b[i] = els[i].Key, got[i].Key
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReorderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive slack should panic")
		}
	}()
	NewReorder("r", 0)
}
