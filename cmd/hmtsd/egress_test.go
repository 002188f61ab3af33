package main

import (
	"net"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/testutil"
)

// maxResultLine bounds one encoded RESULT line: the prefix, then four
// numbers of at most 24 bytes, each followed by a space or the newline.
const maxResultLine = len("RESULT ") + 4*25

// pending reports the bytes o has queued for its writer.
func pending(o *egress) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.buf)
}

// stallSockBuf is the socket buffer size, each way, of the connections in
// TestServerSlowReaderBackpressure.
const stallSockBuf = 64 << 10

// TestServerSlowReaderBackpressure runs two sessions side by side. Session
// A's client keeps pushing PUSHB frames under POLICY block but never reads
// a line; session B is a well-behaved client. A's egress must fill to its
// cap and stay there while its pushes stall (backpressure, nothing
// dropped), B's results must keep flowing meanwhile, and once A's client
// closes its socket every goroutine of A's session and engine must exit.
func TestServerSlowReaderBackpressure(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	sessions := make(chan *session, 2) // one per client
	served := make(chan *session, 2)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// A fixed send buffer (which also turns off the kernel's
			// autotuning) bounds what the kernel absorbs from a
			// session nobody reads, so session A's stall is a fixed
			// point and not a pause.
			conn.(*net.TCPConn).SetWriteBuffer(stallSockBuf)
			s := newSession(conn)
			sessions <- s
			go func() {
				s.serve()
				served <- s
			}()
		}
	}()
	addr := ln.Addr().String()
	setup := func(c *client) {
		c.t.Helper()
		c.sendLine("SOURCE ext EXTERNAL POLICY block BUFFER 1024")
		c.expect("OK source ext")
		c.sendLine("QUERY SELECT * FROM ext")
		c.expect("OK 0")
		c.sendLine("START gts BOUND 256")
		c.expect("OK running")
	}
	keys := []int64{1, 2, 3}

	b := dial(t, addr)
	<-sessions
	setup(b)
	const bFrame = 64
	bSent := 0
	// bStep pushes one frame through B and reads until all of its results
	// have arrived.
	bStep := func() {
		t.Helper()
		b.pushb("ext", bFrame, keys, int64(bSent)+1)
		bSent += bFrame
		if accepted, _ := b.expectOKCounts(); accepted != bFrame {
			t.Fatalf("session B: frame accepted %d of %d", accepted, bFrame)
		}
		for b.results["0"] < bSent {
			b.readLine()
		}
	}
	bStep()

	t.Run("stalled", func(t *testing.T) {
		testutil.VerifyNoLeaks(t)
		a := dial(t, addr)
		a.conn.(*net.TCPConn).SetReadBuffer(stallSockBuf)
		sa := <-sessions
		setup(a)
		// serve registered the source before queuing its reply on sa.out,
		// so taking the egress lock orders this read after that write.
		sa.out.mu.Lock()
		ext := sa.externals["ext"]
		sa.out.mu.Unlock()
		pushDone := make(chan struct{})
		go func() {
			defer close(pushDone)
			frame := ingestFrame(512)
			for {
				if _, err := a.conn.Write(frame); err != nil {
					return
				}
			}
		}()

		// The egress never holds more than one line past its cap.
		below := func() int {
			t.Helper()
			p := pending(sa.out)
			if p >= egressCap+maxResultLine {
				t.Fatalf("egress holds %d bytes, cap %d", p, egressCap)
			}
			return p
		}
		// The kernel's socket buffers keep absorbing A's results for a
		// while, so wait for the fixed point while B keeps making
		// progress: A's egress at its cap and its accepted count frozen
		// across a run of B frames.
		deadline := time.Now().Add(30 * time.Second)
		for {
			before := ext.Stats().Accepted
			full := true
			for i := 0; i < 8; i++ {
				bStep()
				full = below() >= egressCap && full
			}
			if ext.Stats().Accepted == before && full {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session A never stalled: egress %d of %d bytes, accepted %d",
					below(), egressCap, ext.Stats().Accepted)
			}
		}
		// Stalled, it stays so: the egress at its cap, nothing admitted,
		// nothing dropped, while B carries on.
		stalled := ext.Stats()
		for i := 0; i < 32; i++ {
			bStep()
			if p := below(); p < egressCap {
				t.Fatalf("stalled egress drained to %d bytes with no reader", p)
			}
		}
		if st := ext.Stats(); st.Accepted != stalled.Accepted || st.Dropped != 0 {
			t.Fatalf("stalled session admitted %d more and dropped %d elements",
				st.Accepted-stalled.Accepted, st.Dropped)
		}

		// A's client disconnects without reading: the session must tear
		// down on its own, releasing every parked producer.
		a.conn.Close()
		select {
		case s := <-served:
			if s != sa {
				t.Fatal("session B ended instead of A")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("session A did not end after its client disconnected")
		}
		<-pushDone
		bStep()
	})

	for i := 0; i < 8; i++ {
		bStep()
	}
	b.sendLine("CLOSE ext")
	b.sendLine("WAIT")
	b.waitDone("0")
	b.expect("OK finished")
	if got := b.results["0"]; got != bSent {
		t.Fatalf("session B got %d results, want %d", got, bSent)
	}
	b.sendLine("QUIT")
	b.expect("OK bye")
}
