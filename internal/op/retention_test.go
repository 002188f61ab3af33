package op

import (
	"runtime"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/ring"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/testutil"
)

// waitFreed forces GC cycles until the finalizer fires or the deadline
// passes. Finalizers need a GC to discover the object and another to run,
// so a single runtime.GC() is not enough.
func waitFreed(t *testing.T, freed chan struct{}) {
	t.Helper()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("expired element's Aux payload was never collected — slice-head retention leak")
}

// TestSHJExpiryReleasesAux pins the hashSide.expire fix: when the oldest
// element of a multi-element bucket expires, re-slicing the bucket must not
// leave the expired element (and its Aux payload) live in the backing
// array. The younger same-key element stays in window, so the bucket's
// backing array itself survives — only the evicted slot may keep the
// payload alive, which is exactly the leak.
func TestSHJExpiryReleasesAux(t *testing.T) {
	for _, batch := range []bool{false, true} {
		j := NewSHJ("j", 100, nil)
		j.Subscribe(NewNull(1), 0)
		freed := make(chan struct{})
		payload := &[1 << 16]byte{}
		runtime.SetFinalizer(payload, func(*[1 << 16]byte) { close(freed) })

		testutil.Push(j, 0, stream.Element{TS: 0, Key: 1, Val: 1, Aux: payload})
		payload = nil
		testutil.Push(j, 0, stream.Element{TS: 150, Key: 1, Val: 2}) // same bucket, survives
		// Arrival at TS 200 sets the deadline to 100: the payload-carrying
		// element expires, its bucket-mate does not.
		probe := []stream.Element{{TS: 200, Key: 2, Val: 3}}
		if batch {
			j.ProcessBatch(1, probe)
		} else {
			testutil.Push(j, 1, probe[0])
		}
		if n := j.WindowLen(); n != 2 {
			t.Fatalf("batch=%v: WindowLen = %d, want 2 (survivor + probe)", batch, n)
		}
		waitFreed(t, freed)
	}
}

// TestWindowAggExpiryReleasesAux does the same for the aggregate's
// per-group window: expiry must drop the element's Aux payload even while
// the group itself stays live.
func TestWindowAggExpiryReleasesAux(t *testing.T) {
	a := NewWindowAgg("a", AggSum, 100, nil)
	a.Subscribe(NewNull(1), 0)
	freed := make(chan struct{})
	payload := &[1 << 16]byte{}
	runtime.SetFinalizer(payload, func(*[1 << 16]byte) { close(freed) })

	testutil.Push(a, 0, stream.Element{TS: 0, Val: 1, Aux: payload})
	payload = nil
	testutil.Push(a, 0, stream.Element{TS: 200, Val: 2}) // expires the first, keeps the group
	if got := a.WindowLen(); got != 1 {
		t.Fatalf("WindowLen = %d, want 1", got)
	}
	waitFreed(t, freed)
}

// TestF64DequeBoundedCapacity pins the ring discipline: a sliding min/max
// window that pushes and pops forever wraps around one backing array, which
// stays proportional to the live window, not to the stream length.
func TestF64DequeBoundedCapacity(t *testing.T) {
	var d ring.Ring[float64]
	const live = 64
	for i := 0; i < 200_000; i++ {
		d.Push(float64(i))
		if d.Len() > live {
			d.Pop()
		}
	}
	if d.Len() != live {
		t.Fatalf("len = %d, want %d", d.Len(), live)
	}
	if d.Cap() > 16*live {
		t.Fatalf("cap = %d after 200k slides of a %d-element window — backing array grows with the stream, not the window", d.Cap(), live)
	}
	if d.Front() != float64(200_000-live) || d.Back() != float64(199_999) {
		t.Fatalf("contents corrupted by wraparound: front=%v back=%v", d.Front(), d.Back())
	}
}

// TestFifoBoundedCapacity pins the same discipline for the element ring
// that joins and aggregates use for window order.
func TestFifoBoundedCapacity(t *testing.T) {
	var f ring.Ring[stream.Element]
	const live = 64
	for i := 0; i < 200_000; i++ {
		f.Push(stream.Element{TS: int64(i)})
		if f.Len() > live {
			f.Pop()
		}
	}
	if f.Cap() > 16*live {
		t.Fatalf("cap = %d after 200k slides of a %d-element window", f.Cap(), live)
	}
	if f.Front().TS != int64(200_000-live) {
		t.Fatalf("contents corrupted by wraparound: front.TS=%d", f.Front().TS)
	}
}
