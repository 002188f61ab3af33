package op

import "github.com/dsms/hmts/internal/stream"

// Union merges any number of input streams into one, forwarding elements
// unchanged in arrival order. It closes once every input port is done.
type Union struct {
	Base
}

// NewUnion returns a union over ins input ports.
func NewUnion(name string, ins int) *Union {
	if ins < 1 {
		panic("op: union needs at least one input")
	}
	u := &Union{}
	u.InitBase(name, ins)
	return u
}

// ProcessBatch implements Sink: a pure pass-through, so the incoming
// slice is forwarded as-is — no copy, since neither Union nor any
// downstream Sink may mutate or retain it.
func (u *Union) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	u.BeginWorkBatch(es)
	u.EmitBatch(es)
	u.EndWorkBatch()
}

// Done implements Sink.
func (u *Union) Done(port int) {
	if u.MarkDone(port) {
		u.Close()
	}
}
