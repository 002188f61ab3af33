package op

// fifo is a slice-backed queue with amortized O(1) pop. Joins, windowed
// aggregates, Distinct and TopK use it to hold window contents in arrival
// order, which is also expiry order because event time is nondecreasing per
// input; WindowAgg also keeps its monotonic min/max deque (which pops from
// the back too) in one.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) push(v T) { f.buf = append(f.buf, v) }

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) empty() bool { return f.head >= len(f.buf) }

// front returns the oldest value; it panics on an empty fifo.
func (f *fifo[T]) front() T { return f.buf[f.head] }

// back returns the newest value; it panics on an empty fifo.
func (f *fifo[T]) back() T { return f.buf[len(f.buf)-1] }

// popBack drops the newest value.
func (f *fifo[T]) popBack() {
	var zero T
	f.buf[len(f.buf)-1] = zero
	f.buf = f.buf[:len(f.buf)-1]
}

// pop removes and returns the oldest value, compacting the backing slice
// once half of it is dead so memory stays proportional to the live window.
// Compacting even at tiny sizes keeps a steady-state window appending
// within one stable capacity instead of growing the slice forever, so the
// hot path allocates nothing once warmed up (amortized O(1) copies).
func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero // release pointers (Aux, groups) for GC
	f.head++
	if f.head > len(f.buf)/2 {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
}

// items returns the live values, oldest first, aliasing the fifo.
func (f *fifo[T]) items() []T { return f.buf[f.head:] }

// each calls fn on every live value, oldest first.
func (f *fifo[T]) each(fn func(T)) {
	for _, v := range f.buf[f.head:] {
		fn(v)
	}
}
