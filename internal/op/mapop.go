package op

import "github.com/dsms/hmts/internal/stream"

// Map transforms each element with a user function; a projection is the
// special case of a Map that narrows the element (drops Aux, rescales Val,
// and so on).
type Map struct {
	Base
	fn func(stream.Element) stream.Element
}

// NewMap returns a transformation operator.
func NewMap(name string, fn func(stream.Element) stream.Element) *Map {
	if fn == nil {
		panic("op: nil map function")
	}
	m := &Map{fn: fn}
	m.InitBase(name, 1)
	return m
}

// NewProject returns the cheap projection used throughout the paper's
// experiments: it keeps Key and TS and drops everything else.
func NewProject(name string) *Map {
	return NewMap(name, func(e stream.Element) stream.Element {
		return stream.Element{TS: e.TS, Key: e.Key}
	})
}

// ProcessBatch implements Sink: the transformation runs out-of-place
// into the output buffer (the input slice is shared with sibling fan-out
// edges and must not be mutated).
func (m *Map) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	m.BeginWorkBatch(es)
	out := m.scratch(len(es))
	for _, e := range es {
		out = append(out, m.fn(e))
	}
	m.flush(out)
	m.EndWorkBatch()
}

// Done implements Sink.
func (m *Map) Done(port int) {
	if m.MarkDone(port) {
		m.Close()
	}
}
