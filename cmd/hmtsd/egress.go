package main

import (
	"fmt"
	"math"
	"math/bits"
	"net"
	"slices"
	"strconv"
	"sync"

	hmts "github.com/dsms/hmts"
)

// egressCap bounds the lines one session has queued but not yet handed to
// its writer. A producer that finds the buffer at the cap waits for the
// writer to take it, so a client that stops reading backpressures its own
// queries instead of growing the daemon's memory or losing results.
const egressCap = 256 << 10

// egress is a session's single ordered output path. Producers — command
// replies, METRICS, RESULT and DONE lines — append whole lines under mu
// and never touch the socket. One writer goroutine swaps the buffer out
// and writes it with no lock held; whatever arrived during that write
// goes out in the next one (group commit). There is no timer: a lone line
// is written as soon as the writer is free, and a burst rides in one
// large write.
type egress struct {
	conn net.Conn

	mu      sync.Mutex
	filled  sync.Cond // the writer waits here for lines or close
	drained sync.Cond // producers wait here for room below egressCap
	buf     []byte    // queued lines, in wire order
	spare   []byte    // the writer's previous buffer, reused for the next swap
	closed  bool      // session over or peer gone: lines are dropped

	done chan struct{} // closed when the writer has exited
}

func newEgress(conn net.Conn) *egress {
	o := &egress{conn: conn, done: make(chan struct{})}
	o.filled.L = &o.mu
	o.drained.L = &o.mu
	return o
}

// room waits, with o.mu held, until the buffer is below its cap or the
// egress is closed, and reports whether a line may be appended.
func (o *egress) room() bool {
	for len(o.buf) >= egressCap && !o.closed {
		o.filled.Signal()
		o.drained.Wait()
	}
	return !o.closed
}

// put appends p, which holds whole lines, as one unit.
func (o *egress) put(p []byte) {
	o.mu.Lock()
	if o.room() {
		o.buf = append(o.buf, p...)
	}
	o.mu.Unlock()
	o.filled.Signal()
}

// printf appends one line formatted as by fmt.Sprintf, plus its newline.
func (o *egress) printf(format string, args ...any) {
	o.mu.Lock()
	if o.room() {
		o.buf = append(fmt.Appendf(o.buf, format, args...), '\n')
	}
	o.mu.Unlock()
	o.filled.Signal()
}

// run is the writer: it hands the queued lines to the socket until the
// egress is closed and drained, or a write fails. A failed write means the
// peer is gone, so it drops everything queued, releases parked producers
// and closes the conn, which also ends the session's read loop.
func (o *egress) run() {
	defer close(o.done)
	o.mu.Lock()
	for {
		for len(o.buf) == 0 && !o.closed {
			o.filled.Wait()
		}
		if len(o.buf) == 0 {
			o.mu.Unlock()
			return
		}
		out := o.buf
		o.buf = o.spare[:0]
		o.drained.Broadcast()
		o.mu.Unlock()
		_, err := o.conn.Write(out)
		o.mu.Lock()
		o.spare = out
		if err != nil {
			o.closed = true
			o.buf = o.buf[:0]
			o.drained.Broadcast()
			o.mu.Unlock()
			o.conn.Close()
			return
		}
	}
}

// close stops accepting lines and releases every parked producer; the
// writer still delivers what is already queued, then exits.
func (o *egress) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.drained.Broadcast()
	o.filled.Signal()
}

// resultSink streams one query's results into the session's egress.
type resultSink struct {
	out    *egress
	id     int
	prefix []byte // "RESULT <id> ", encoded once
}

func newResultSink(out *egress, id int) *resultSink {
	return &resultSink{out: out, id: id, prefix: resultPrefix(id)}
}

// ProcessBatch implements the engine's batched sink: a burst of results is
// encoded under one lock acquisition.
func (r *resultSink) ProcessBatch(_ int, es []hmts.Element) {
	o := r.out
	o.mu.Lock()
	for i := range es {
		if !o.room() {
			break
		}
		o.buf = appendResult(o.buf, r.prefix, es[i])
	}
	o.mu.Unlock()
	o.filled.Signal()
}

// Done implements hmts.Sink.
func (r *resultSink) Done(int) {
	r.out.printf("DONE %d", r.id)
}

// resultPrefix is the start of every RESULT line of query id.
func resultPrefix(id int) []byte {
	return append(strconv.AppendInt([]byte("RESULT "), int64(id), 10), ' ')
}

// appendResult appends the rest of the line "RESULT <id> <ts> <key> <val>\n"
// after prefix, which resultPrefix made. The line is byte-identical to
// formatting it with "RESULT %d %d %d %g\n".
func appendResult(b, prefix []byte, e hmts.Element) []byte {
	b = append(b, prefix...)
	b = appendInt(b, e.TS)
	b = append(b, ' ')
	b = appendInt(b, e.Key)
	b = append(b, ' ')
	// %g prints an integral value below 1e6 in magnitude as an integer
	// (it switches to exponent form at 1e6). A window COUNT is always
	// integral, and the integer path skips the shortest-float search.
	// -0, NaN and ±Inf fail the test and take AppendFloat.
	if i := int64(e.Val); float64(i) == e.Val && i > -1e6 && i < 1e6 && math.Float64bits(e.Val) != 1<<63 {
		b = appendInt(b, i)
	} else {
		b = strconv.AppendFloat(b, e.Val, 'g', -1, 64)
	}
	return append(b, '\n')
}

// appendInt appends the decimal form of v exactly as strconv.AppendInt(b,
// v, 10) does, but writes the digits straight into b's spare capacity
// rather than into a temporary buffer that is then copied.
func appendInt(b []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
	}
	n := decimalLen(u)
	b = slices.Grow(b, n)
	i := len(b) + n
	b = b[:i]
	for u >= 100 {
		q := u / 100
		d := 2 * (u - q*100)
		i -= 2
		b[i], b[i+1] = digitPairs[d], digitPairs[d+1]
		u = q
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

// decimalLen is the number of decimal digits of u (1 for 0).
func decimalLen(u uint64) int {
	// bits.Len64·log10(2) estimates the count to within one; a table
	// lookup settles which.
	n := bits.Len64(u) * 1233 >> 12
	if n < len(pow10) && u >= pow10[n] {
		n++
	}
	return max(n, 1)
}

var pow10 = [...]uint64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"
