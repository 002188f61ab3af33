package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The hostile-client suite: each test runs one misbehaving session next
// to a well-behaved one on the same daemon. The hostile session must end
// on its own (or when its client goes away), the well-behaved session's
// results must stay exact, and — through startServer — no goroutine of
// either session may outlive it.

// wellBehaved runs a complete bounded, Block-policy session and checks
// every result against the pushed input.
func wellBehaved(t *testing.T, addr string) {
	t.Helper()
	c := dial(t, addr)
	c.sendLine("SOURCE ext EXTERNAL POLICY block BUFFER 64")
	c.expect("OK source ext")
	c.sendLine("QUERY SELECT * FROM ext WHERE key < 5")
	c.expect("OK 0")
	c.sendLine("START ots BOUND 16")
	c.expect("OK running")
	keys := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	const frames, per = 10, 500
	for f := 0; f < frames; f++ {
		c.pushb("ext", per, keys, int64(f*per)+1)
		if _, dropped := c.expectOKCounts(); dropped != 0 {
			t.Fatalf("frame %d: %d dropped under POLICY block", f, dropped)
		}
	}
	c.sendLine("CLOSE ext")
	c.sendLine("WAIT")
	c.waitDone("0")
	var want []string
	for i := 0; i < frames*per; i++ {
		if k := keys[i%per%len(keys)]; k < 5 {
			want = append(want, fmt.Sprintf("%d %d 1", i+1, k))
		}
	}
	got := c.rows["0"]
	if len(got) != len(want) {
		t.Fatalf("well-behaved session: %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("well-behaved session: result %d = %q, want %q", i, got[i], want[i])
		}
	}
	c.sendLine("QUIT")
	c.expect("OK bye")
}

// rawConn dials the daemon for a hostile client, which manages its own
// reads and writes.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// frame encodes a PUSHB frame of n records with keys i%10 and ts from base.
func frame(name string, n int, base int64) []byte {
	b := []byte("PUSHB " + name + " " + strconv.Itoa(n) + "\n")
	hdr := len(b)
	b = append(b, make([]byte, n*frameRecordSize)...)
	for i := 0; i < n; i++ {
		rec := b[hdr+i*frameRecordSize:]
		binary.LittleEndian.PutUint64(rec, uint64(base+int64(i)))
		binary.LittleEndian.PutUint64(rec[8:], uint64(i%10))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(1))
	}
	return b
}

// setup sends the commands of a running one-query session over conn,
// without reading the replies.
func setup(t *testing.T, conn net.Conn, policy, start string) {
	t.Helper()
	cmds := "SOURCE ext EXTERNAL POLICY " + policy + " BUFFER 16\n" +
		"QUERY SELECT * FROM ext\n" +
		"START " + start + "\n"
	if _, err := conn.Write([]byte(cmds)); err != nil {
		t.Fatalf("setup: %v", err)
	}
}

// TestHostileHalfFrame: a client sends the header and half the records of
// a PUSHB frame, then hangs up. The session sees a short frame and ends.
func TestHostileHalfFrame(t *testing.T) {
	addr := startServer(t)
	conn := rawConn(t, addr)
	setup(t, conn, "block", "ots BOUND 8")
	f := frame("ext", 1000, 1)
	if _, err := conn.Write(f[:len(f)-500*frameRecordSize]); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.Close()
	wellBehaved(t, addr)
}

// TestHostileDisconnectMidPushBlock: a client pushes a frame far larger
// than the session can absorb while it reads no results, so the daemon
// sits inside the Block-policy push behind its own backpressure — the
// ingress buffer full and the push unfinished — and then the client
// disconnects. The session must unwind.
func TestHostileDisconnectMidPushBlock(t *testing.T) {
	sessions := make(chan *session, 2)
	addr := startServerWatch(t, func(s *session) { sessions <- s })
	conn := rawConn(t, addr)
	hostile := <-sessions
	setup(t, conn, "block", "hmts BOUND 4")
	const n = 500_000
	go conn.Write(frame("ext", n, 1)) // fails once the conn is closed
	deadline := time.Now().Add(30 * time.Second)
	for blocked := false; !blocked; {
		if time.Now().After(deadline) {
			t.Fatalf("the daemon never blocked inside the push: %+v", hostile.eng.Metrics().Ingest)
		}
		time.Sleep(5 * time.Millisecond)
		for _, m := range hostile.eng.Metrics().Ingest {
			blocked = m.Name == "ext" && m.Accepted > 0 && m.Accepted < n && m.Len == m.Cap
		}
	}
	conn.Close()
	wellBehaved(t, addr)
}

// TestHostileQueryStormDuringPush: a client pipelines PUSHB frames with a
// QUERY ADD and a QUERY DROP after each, without waiting for replies. Its
// standing query must still see every element, and the session ends when
// the client quits.
func TestHostileQueryStormDuringPush(t *testing.T) {
	addr := startServer(t)
	conn := rawConn(t, addr)
	type tally struct {
		standing int
		errs     []string
	}
	finished := make(chan tally, 1)
	go func() {
		var tl tally
		r := bufio.NewReader(conn)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				finished <- tl
				return
			}
			f := strings.Fields(line)
			switch {
			case len(f) >= 2 && f[0] == "RESULT" && f[1] == "0":
				tl.standing++
			case len(f) > 0 && f[0] == "ERR":
				tl.errs = append(tl.errs, strings.TrimSpace(line))
			case strings.HasPrefix(line, "OK finished"):
				finished <- tl
				return
			}
		}
	}()
	setup(t, conn, "block", "hmts BOUND 8")
	const frames, per = 40, 250
	var storm []byte
	for i := 0; i < frames; i++ {
		storm = append(storm, frame("ext", per, int64(i*per)+1)...)
		storm = append(storm, fmt.Sprintf("QUERY ADD SELECT * FROM ext WHERE key < %d\n", 1+i%9)...)
		storm = append(storm, fmt.Sprintf("QUERY DROP %d\n", 1+i)...)
	}
	storm = append(storm, "CLOSE ext\nWAIT\n"...)
	if _, err := conn.Write(storm); err != nil {
		t.Fatalf("storm: %v", err)
	}
	wellBehaved(t, addr)
	select {
	case tl := <-finished:
		if len(tl.errs) > 0 {
			t.Fatalf("storm session errors: %q", tl.errs)
		}
		if tl.standing != frames*per {
			t.Fatalf("standing query saw %d of %d elements", tl.standing, frames*per)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("storm session never finished")
	}
	if _, err := conn.Write([]byte("QUIT\n")); err != nil {
		t.Fatalf("quit: %v", err)
	}
}

// TestHostileMetricsNeverRead: a client floods METRICS requests and never
// reads a reply, so its session blocks on its own full output. The daemon
// keeps serving others, and the session ends once the client hangs up.
func TestHostileMetricsNeverRead(t *testing.T) {
	addr := startServer(t)
	conn := rawConn(t, addr)
	setup(t, conn, "block", "gts")
	flood := []byte(strings.Repeat("METRICS\n", 1024))
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < 256; i++ {
		if _, err := conn.Write(flood); err != nil {
			break // the daemon stopped reading: its output is full
		}
	}
	wellBehaved(t, addr)
	conn.Close()
}

// TestHostileUnknownStrategy: START and MODE with a strategy name the
// engine does not know answer ERR — they used to panic the session
// goroutine and with it the daemon — and the session then starts,
// switches and finishes normally. "roundrobin" and "maxqueue" are level-2
// strategies the engine no longer has; they are refused like any other
// unknown name.
func TestHostileUnknownStrategy(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.sendLine("SOURCE ext EXTERNAL POLICY block BUFFER 64")
	c.expect("OK source ext")
	c.sendLine("QUERY SELECT * FROM ext WHERE key < 3")
	c.expect("OK 0")
	for _, cmd := range []string{
		"START ots warp", "START ots roundrobin", "START hmts maxqueue", "START hmts warp", "START hmts",
		"MODE ots warp", "MODE ots roundrobin", "MODE gts maxqueue", "MODE ots chain",
	} {
		c.sendLine(cmd)
		want := "ERR"
		if cmd == "START hmts" || cmd == "MODE ots chain" {
			want = "OK"
		}
		if line := c.readLine(); !strings.HasPrefix(line, want) {
			t.Fatalf("%s: got %q, want %s", cmd, line, want)
		}
	}
	c.pushb("ext", 99, []int64{1, 2, 3}, 1)
	c.expectOKCounts()
	c.sendLine("CLOSE ext")
	c.sendLine("WAIT")
	c.waitDone("0")
	if got := c.results["0"]; got != 66 {
		t.Fatalf("got %d results, want 66", got)
	}
	c.sendLine("QUIT")
	c.expect("OK bye")
	wellBehaved(t, addr)
}

// TestHostileReversedKeys: SOURCE with KEYS hi < lo answers ERR. The
// definition used to reach hmts.UniformKeys unchecked, whose panic in the
// bare session goroutine took the whole daemon down; a second session
// must still run normally.
func TestHostileReversedKeys(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.sendLine("SOURCE s COUNT 10 RATE 1 KEYS 5 1")
	if line := c.readLine(); !strings.HasPrefix(line, "ERR") {
		t.Fatalf("KEYS 5 1: got %q, want ERR", line)
	}
	c.sendLine("QUIT")
	c.expect("OK bye")
	wellBehaved(t, addr)
}

// TestHostileHugeBuffer: an EXTERNAL source with a BUFFER above maxBuffer
// answers ERR. BUFFER 9223372036854775807 used to reach the ingress
// buffer unchecked, whose allocation panicked in the bare session
// goroutine and took the whole daemon down; a second session must still
// run normally.
func TestHostileHugeBuffer(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.sendLine("SOURCE s EXTERNAL BUFFER 9223372036854775807")
	if line := c.readLine(); !strings.HasPrefix(line, "ERR") {
		t.Fatalf("BUFFER 9223372036854775807: got %q, want ERR", line)
	}
	c.sendLine("QUIT")
	c.expect("OK bye")
	wellBehaved(t, addr)
}

// TestHostileUnicodeCommand: a command word whose upper-case form has a
// different length in bytes is cut from the line as sent. "ɐ" (2 bytes)
// upper-cases to "Ɐ" (3 bytes), and slicing the line by the upper-cased
// length panicked the session goroutine and took the whole daemon down;
// "ſ" (2 bytes) upper-cases to "S" (1 byte), which shifted the arguments
// of "ſource s external" by one byte.
func TestHostileUnicodeCommand(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.sendLine("ɐ")
	c.sendLine("QUIT")
	if line := c.readLine(); !strings.HasPrefix(line, "ERR") {
		t.Fatalf("ɐ: got %q, want ERR", line)
	}
	if line := c.readLine(); line != "OK bye" {
		t.Fatalf("ɐ: got a second reply %q, want only one ERR", line)
	}
	reply := func(cmd string) string {
		c := dial(t, addr)
		c.sendLine(cmd)
		line := c.readLine()
		c.sendLine("QUIT")
		c.expect("OK bye")
		return line
	}
	want := reply("SOURCE s EXTERNAL")
	if got := reply("ſource s external"); got != want {
		t.Fatalf("ſource s external: got %q, want %q as for SOURCE s EXTERNAL", got, want)
	}
	wellBehaved(t, addr)
}

// TestHostileUnpaceableRate: SOURCE with a RATE no generator can pace
// answers ERR. RATE NaN used to be accepted, and its source never
// finished; a second session must still run normally.
func TestHostileUnpaceableRate(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	for _, rate := range []string{"NaN", "1e-300"} {
		c.sendLine("SOURCE s COUNT 10 RATE " + rate)
		if line := c.readLine(); !strings.HasPrefix(line, "ERR") {
			t.Fatalf("RATE %s: got %q, want ERR", rate, line)
		}
	}
	c.sendLine("QUIT")
	c.expect("OK bye")
	wellBehaved(t, addr)
}
