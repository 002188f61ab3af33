package op

import "github.com/dsms/hmts/internal/stream"

// MJoin is an n-ary symmetric hash join over sliding time windows that
// materializes no intermediate results — the multi-way join of Viglas,
// Naughton and Burger (VLDB 2003) that the paper's related-work section
// cites as a natural virtual operator with n inputs and one output.
//
// On arrival at input i the element is inserted into side i's window and
// probed against every other side; one output is emitted per complete
// combination of matching elements, merged by folding pairwise with the
// join's MergeFunc in input-port order.
type MJoin struct {
	Base
	window int64
	merge  MergeFunc
	sides  []hashSide
	parts  []stream.Element // combination buffer, reused across probes
}

// NewMJoin returns an n-way symmetric hash join (n >= 2) with the given
// window in nanoseconds. A nil merge uses the deterministic default.
func NewMJoin(name string, n int, window int64, merge MergeFunc) *MJoin {
	if n < 2 {
		panic("op: MJoin needs at least two inputs")
	}
	if window <= 0 {
		panic("op: join window must be positive")
	}
	if merge == nil {
		merge = defaultMerge
	}
	j := &MJoin{window: window, merge: merge, sides: make([]hashSide, n), parts: make([]stream.Element, n)}
	j.InitBase(name, n)
	for i := range j.sides {
		j.sides[i].table = make(map[int64][]stream.Element)
	}
	return j
}

// WindowLen returns the total number of elements held across all windows.
func (j *MJoin) WindowLen() int {
	n := 0
	for i := range j.sides {
		n += j.sides[i].order.Len()
	}
	return n
}

// arrive inserts e into side port, probes the other sides, and appends one
// output per complete combination to out.
func (j *MJoin) arrive(port int, e stream.Element, out []stream.Element) []stream.Element {
	j.sides[port].insert(e)
	// Probe the other sides in port order, building combinations
	// recursively. parts[i] is the element chosen for side i; the arriving
	// element fills its own slot. The buffer is operator-owned and reused
	// — the partition contract guarantees one probe at a time.
	j.parts[port] = e
	return j.probe(0, port, e, out)
}

// probe fills slot i and recurses; when all slots are filled it appends the
// fold of the combination to out. Every member of a combination must lie
// within the window of the arriving element e.
func (j *MJoin) probe(i, skip int, e stream.Element, out []stream.Element) []stream.Element {
	if i == len(j.sides) {
		acc := j.parts[0]
		for k := 1; k < len(j.parts); k++ {
			acc = j.merge(acc, j.parts[k])
		}
		return append(out, acc)
	}
	if i == skip {
		return j.probe(i+1, skip, e, out)
	}
	for _, m := range j.sides[i].table[e.Key] {
		if !withinWindow(e.TS, m.TS, j.window) {
			continue
		}
		j.parts[i] = m
		out = j.probe(i+1, skip, e, out)
	}
	return out
}

// ProcessBatch implements Sink. As in SHJ, expiry is hoisted to one
// pass per side with the first element's deadline — output-equivalent
// because combinations are gated by the event-time window predicate.
func (j *MJoin) ProcessBatch(port int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	j.BeginWorkBatch(es)
	deadline := es[0].TS - j.window
	for i := range j.sides {
		j.sides[i].expire(deadline)
	}
	out := j.scratch(len(es))
	for _, e := range es {
		out = j.arrive(port, e, out)
	}
	j.flush(out)
	j.EndWorkBatch()
}

// Done implements Sink.
func (j *MJoin) Done(port int) {
	if j.MarkDone(port) {
		j.Close()
	}
}
