package op

// fifo is a circular queue over a power-of-two slice. Joins, windowed
// aggregates, Distinct and TopK use it to hold window contents in arrival
// order, which is also expiry order because event time is nondecreasing per
// input; WindowAgg also keeps its monotonic min/max deque (which pops from
// the back too) in one. A full fifo doubles, copying its live values once;
// otherwise no value ever moves, so a steady-state window pushes and pops
// within one stable array and the hot path allocates nothing.
type fifo[T any] struct {
	buf     []T // len(buf) is zero or a power of two
	head, n int
}

func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// grow doubles the ring (to 8 from empty), unwrapping the live values to
// the front of the new array.
func (f *fifo[T]) grow() {
	bigger := make([]T, max(2*len(f.buf), 8))
	m := copy(bigger, f.buf[f.head:])
	copy(bigger[m:], f.buf[:f.head])
	f.buf, f.head = bigger, 0
}

func (f *fifo[T]) len() int { return f.n }

func (f *fifo[T]) empty() bool { return f.n == 0 }

// front returns the oldest value; the fifo must not be empty.
func (f *fifo[T]) front() T { return f.buf[f.head] }

// back returns the newest value; the fifo must not be empty.
func (f *fifo[T]) back() T { return f.buf[(f.head+f.n-1)&(len(f.buf)-1)] }

// popBack drops the newest value, zeroing its slot so the fifo does not
// pin its pointers (Aux, groups) for the GC.
func (f *fifo[T]) popBack() {
	var zero T
	f.n--
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = zero
}

// pop removes and returns the oldest value, zeroing its slot.
func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// each calls fn on every live value, oldest first.
func (f *fifo[T]) each(fn func(T)) {
	first := min(f.n, len(f.buf)-f.head)
	for _, v := range f.buf[f.head : f.head+first] {
		fn(v)
	}
	for _, v := range f.buf[:f.n-first] {
		fn(v)
	}
}
