package op

import (
	"reflect"
	"testing"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/testutil"
)

// FuzzShardMerge drives a full split → replicas → merge region from raw
// fuzz bytes and checks the merge against a trivially-correct reference.
// The replicas are identity maps, so the region's merged output must equal
// the input sequence exactly — the order-restoring merge undoing the hash
// partition is the whole property. The byte stream decides the shard
// count, the key/timestamp pattern (duplicate timestamps and heavily
// skewed keys — empty shards — arise naturally) and how much of the input
// flows before end-of-stream, so early close with elements still buffered
// in the merge is covered too.
func FuzzShardMerge(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{8, 255, 254, 253, 0, 0, 1, 1, 2, 2, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%8) + 1
		data = data[1:]

		// Decode elements: two bytes each — key (skew via modulus) and a
		// small timestamp advance (0 duplicates the previous timestamp).
		var in []stream.Element
		var ts int64
		for i := 0; i+1 < len(data); i += 2 {
			ts += int64(data[i+1] % 4)
			in = append(in, stream.Element{TS: ts, Key: int64(data[i] % 16), Val: float64(i)})
		}

		sp, mg, _ := buildRegion(n, 1, func(_ int, e stream.Element) int64 { return e.Key },
			func(int) Operator { return NewMap("id", func(e stream.Element) stream.Element { return e }) })
		cap := &captureSink{}
		mg.Subscribe(cap, 0)
		for _, e := range in {
			testutil.Push(sp, 0, e)
		}
		buffered := mg.Buffered()
		sp.Done(0) // early close: whatever is held back must flush now

		if len(cap.got) != len(in) {
			t.Fatalf("n=%d: %d in, %d out (%d were buffered at close)", n, len(in), len(cap.got), buffered)
		}
		for i := range in {
			if cap.got[i] != in[i] {
				t.Fatalf("n=%d: output %d = %v, want %v (order not restored)", n, i, cap.got[i], in[i])
			}
		}
		if cap.dones != 1 {
			t.Fatalf("n=%d: %d Dones, want 1", n, cap.dones)
		}
		if mg.Buffered() != 0 {
			t.Fatalf("n=%d: %d elements stuck after close", n, mg.Buffered())
		}

		// Second property: with stateful grouped-aggregate replicas the
		// region must match the unsharded operator byte for byte.
		group := func(e stream.Element) int64 { return e.Key }
		ref := NewWindowAgg("ref", AggSum, 8, group)
		rcap := &captureSink{}
		ref.Subscribe(rcap, 0)
		for _, e := range in {
			testutil.Push(ref, 0, e)
		}
		ref.Done(0)
		sp2, mg2, _ := buildRegion(n, 1, func(_ int, e stream.Element) int64 { return group(e) },
			func(int) Operator { return NewWindowAgg("a", AggSum, 8, group) })
		cap2 := &captureSink{}
		mg2.Subscribe(cap2, 0)
		for _, e := range in {
			testutil.Push(sp2, 0, e)
		}
		sp2.Done(0)
		if !reflect.DeepEqual(rcap.got, cap2.got) {
			t.Fatalf("n=%d: sharded aggregate diverges from unsharded (%d vs %d elements)",
				n, len(cap2.got), len(rcap.got))
		}
	})
}
