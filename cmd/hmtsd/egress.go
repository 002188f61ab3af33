package main

import (
	"fmt"
	"net"
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
	out *egress
	id  int
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
		o.buf = appendResult(o.buf, r.id, es[i])
	}
	o.mu.Unlock()
	o.filled.Signal()
}

// Done implements hmts.Sink.
func (r *resultSink) Done(int) {
	r.out.printf("DONE %d", r.id)
}

// appendResult appends the line "RESULT <id> <ts> <key> <val>\n",
// byte-identical to formatting it with "RESULT %d %d %d %g\n".
func appendResult(b []byte, id int, e hmts.Element) []byte {
	b = append(b, "RESULT "...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.TS, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.Key, 10)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, e.Val, 'g', -1, 64)
	return append(b, '\n')
}
