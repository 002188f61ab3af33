package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/testutil"
)

// startServer runs the accept loop on an ephemeral port and returns the
// address. Every server test doubles as a goroutine-leak check: after the
// listener and client connections close, each session's engine, external
// sources and egress writer must have stopped.
func startServer(t *testing.T) string {
	return startServerWatch(t, nil)
}

// startServerWatch is startServer that also hands every new session to
// watch (if non-nil) before it starts serving.
func startServerWatch(t *testing.T, watch func(*session)) string {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s := newSession(conn)
			if watch != nil {
				watch(s)
			}
			go s.serve()
		}
	}()
	return ln.Addr().String()
}

type client struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
	// results tallies RESULT lines per query id, rows keeps their
	// "<ts> <key> <val>" fields and dones the DONE lines, no matter which
	// read consumed them — results stream concurrently with command
	// responses.
	results map[string]int
	rows    map[string][]string
	dones   map[string]bool
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &client{t: t, conn: conn, r: bufio.NewReader(conn),
		results: make(map[string]int), rows: make(map[string][]string), dones: make(map[string]bool)}
	c.expect("OK hmtsd ready")
	return c
}

func (c *client) sendLine(line string) {
	c.t.Helper()
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		c.t.Fatalf("write: %v", err)
	}
}

func (c *client) readLine() string {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	line, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	line = strings.TrimRight(line, "\n")
	if f := strings.Fields(line); len(f) >= 2 {
		switch f[0] {
		case "RESULT":
			c.results[f[1]]++
			c.rows[f[1]] = append(c.rows[f[1]], strings.Join(f[2:], " "))
		case "DONE":
			c.dones[f[1]] = true
		}
	}
	return line
}

// waitDone reads until the query id's DONE line has been seen.
func (c *client) waitDone(id string) {
	c.t.Helper()
	for !c.dones[id] {
		if line := c.readLine(); strings.HasPrefix(line, "ERR") {
			c.t.Fatalf("server error: %s", line)
		}
	}
}

// expect reads lines until one has the prefix, failing on ERR.
func (c *client) expect(prefix string) []string {
	c.t.Helper()
	var skipped []string
	for {
		line := c.readLine()
		if strings.HasPrefix(line, prefix) {
			return skipped
		}
		if strings.HasPrefix(line, "ERR") {
			c.t.Fatalf("server error while waiting for %q: %s", prefix, line)
		}
		skipped = append(skipped, line)
	}
}

func TestServerEndToEnd(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)

	c.sendLine("SOURCE s COUNT 1000 RATE 0 KEYS 0 9 SEED 3 STAMPED")
	c.expect("OK source s")
	c.sendLine("QUERY SELECT * FROM s WHERE key < 5")
	c.expect("OK 0")
	c.sendLine("START gts")
	c.expect("OK running")
	c.sendLine("WAIT")
	c.waitDone("0")
	results := c.results["0"]
	if results == 0 {
		t.Fatal("no results streamed")
	}
	// Keys 0..9 uniform, predicate key < 5 -> about half pass.
	if results < 300 || results > 700 {
		t.Fatalf("got %d results, want ~500", results)
	}
	c.sendLine("METRICS")
	info := c.expect("OK metrics")
	if len(info) == 0 {
		t.Fatal("METRICS returned no INFO lines")
	}
	c.sendLine("QUIT")
	c.expect("OK bye")
}

func TestServerSharedSourceTwoQueries(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.sendLine("SOURCE s COUNT 2000 RATE 0 KEYS 0 99 SEED 5 STAMPED")
	c.expect("OK source s")
	c.sendLine("QUERY SELECT * FROM s WHERE key < 50")
	c.expect("OK 0")
	c.sendLine("QUERY SELECT * FROM s WHERE key >= 50")
	c.expect("OK 1")
	c.sendLine("START hmts")
	c.expect("OK running")
	c.waitDone("0")
	c.waitDone("1")
	if got := c.results["0"] + c.results["1"]; got != 2000 {
		t.Fatalf("split queries lost elements: %v", c.results)
	}
}

// TestServerFullRangeKeys: KEYS spanning all of int64 generates every
// element. The key span hi-lo+1 used to overflow, so the first draw
// panicked and fail-stopped the engine while the client still read DONE.
func TestServerFullRangeKeys(t *testing.T) {
	const n = 500
	addr := startServer(t)
	c := dial(t, addr)
	c.sendLine(fmt.Sprintf("SOURCE s COUNT %d RATE 0 KEYS %d %d SEED 3 STAMPED", n, math.MinInt64, math.MaxInt64))
	c.expect("OK source s")
	c.sendLine("QUERY SELECT * FROM s")
	c.expect("OK 0")
	c.sendLine("START gts")
	c.expect("OK running")
	c.sendLine("WAIT")
	c.expect("OK finished")
	c.waitDone("0")
	if got := c.results["0"]; got != n {
		t.Fatalf("got %d results, want %d", got, n)
	}
	neg := 0
	for _, row := range c.rows["0"] {
		if strings.Fields(row)[1][0] == '-' {
			neg++
		}
	}
	if neg == 0 || neg == n {
		t.Fatalf("%d of %d keys negative, want both signs", neg, n)
	}
}

// TestServerWaitReportsEngineError: WAIT on an engine that fail-stopped
// answers ERR with the engine's error, not OK finished.
func TestServerWaitReportsEngineError(t *testing.T) {
	addr := startServerWatch(t, func(s *session) {
		boom := func(int) hmts.Element { panic("generator failure") }
		s.sources["bad"] = s.eng.Source("bad", hmts.GenerateStamped(10, 0, boom))
	})
	c := dial(t, addr)
	c.sendLine("QUERY SELECT * FROM bad")
	c.expect("OK 0")
	c.sendLine("START gts")
	c.expect("OK running")
	c.sendLine("WAIT")
	for {
		line := c.readLine()
		if strings.HasPrefix(line, "OK") {
			t.Fatalf("WAIT on a failed engine answered %q", line)
		}
		if strings.HasPrefix(line, "ERR") {
			if !strings.Contains(line, "generator failure") {
				t.Fatalf("WAIT answered %q, want the engine's error", line)
			}
			break
		}
	}
	c.sendLine("QUIT")
	c.expect("OK bye")
}

func TestServerLiveModeSwitchAndRebalance(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.sendLine("SOURCE s COUNT 100000 RATE 0 KEYS 0 999 STAMPED")
	c.expect("OK source")
	c.sendLine("QUERY SELECT count(*) FROM s GROUP BY KEY WINDOW 1s")
	c.expect("OK 0")
	c.sendLine("START ots")
	c.expect("OK running")
	c.sendLine("MODE gts chain")
	c.expect("OK mode gts")
	c.sendLine("MODE hmts")
	c.expect("OK mode hmts")
	c.sendLine("REBALANCE")
	c.expect("OK rebalanced")
	c.sendLine("WAIT")
	c.waitDone("0")
	if got := c.results["0"]; got != 100000 {
		t.Fatalf("continuous aggregate streamed %d results, want 100000", got)
	}
}

func TestServerErrors(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.sendLine("QUERY SELECT * FROM nope")
	if line := c.readLine(); !strings.HasPrefix(line, "ERR") {
		t.Fatalf("want ERR for unknown source, got %s", line)
	}
	c.sendLine("START")
	if line := c.readLine(); !strings.HasPrefix(line, "ERR") {
		t.Fatalf("want ERR for START without queries, got %s", line)
	}
	c.sendLine("BOGUS")
	if line := c.readLine(); !strings.HasPrefix(line, "ERR") {
		t.Fatalf("want ERR for unknown command, got %s", line)
	}
	c.sendLine("SOURCE s COUNT 10 RATE 0 STAMPED")
	c.expect("OK source")
	c.sendLine("SOURCE s COUNT 10 RATE 0")
	if line := c.readLine(); !strings.HasPrefix(line, "ERR") {
		t.Fatalf("want ERR for duplicate source, got %s", line)
	}
}

// TestServerQueryAddDropLive drives the multi-query protocol end to end:
// a standing query over a Block-policy external source, a second identical
// query registered live mid-stream (subsumed into the standing plan), a
// divergent third registered live and then dropped live (its DONE marker
// must flush), with zero element loss on the standing query. startServer's
// VerifyNoLeaks asserts the add/drop splices leak no goroutines.
func TestServerQueryAddDropLive(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.sendLine("SOURCE ext EXTERNAL POLICY block BUFFER 256")
	c.expect("OK source ext")
	c.sendLine("QUERY SELECT * FROM ext WHERE key < 50")
	c.expect("OK 0")
	c.sendLine("START gts BOUND 256")
	c.expect("OK running")

	push := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.sendLine(fmt.Sprintf("PUSH ext %d %d %d", (i+1)*1000, i%100, i))
		}
	}
	push(0, 1000)
	// Identical predicate: the rewriter subsumes it into the standing plan
	// and the splice adds only a sink — no restart, no drops.
	c.sendLine("QUERY ADD SELECT * FROM ext WHERE key < 50")
	c.expect("OK 1")
	// Divergent predicate: a private filter spliced in live...
	c.sendLine("QUERY ADD SELECT * FROM ext WHERE key >= 50")
	c.expect("OK 2")
	push(1000, 2000)
	// ...and dropped live: the exclusive suffix is pruned and the query's
	// DONE marker flushes while everything else keeps flowing.
	c.sendLine("QUERY DROP 2")
	c.expect("OK dropped 2")
	c.waitDone("2")
	c.sendLine("CLOSE ext")
	c.expect("OK closed ext")
	c.sendLine("WAIT")
	c.waitDone("0")
	c.waitDone("1")
	c.expect("OK finished")
	if got := c.results["0"]; got != 1000 {
		t.Fatalf("standing query got %d results, want 1000 (Block policy loses nothing)", got)
	}
	if got := c.results["1"]; got > c.results["0"] {
		t.Fatalf("live-added query saw %d results, more than the standing query's %d", got, c.results["0"])
	}
	// A dropped id no longer resolves.
	c.sendLine("QUERY DROP 2")
	if line := c.readLine(); !strings.HasPrefix(line, "ERR") {
		t.Fatalf("want ERR for double drop, got %s", line)
	}
	// The metrics queries section reports the surviving queries sharing
	// their one operator (refs=2 on the common filter).
	c.sendLine("METRICS")
	info := c.expect("OK metrics")
	for _, q := range []string{"q0", "q1"} {
		found := false
		for _, line := range info {
			if strings.Contains(line, q) && strings.Contains(line, "shared=1") {
				found = true
			}
		}
		if !found {
			t.Fatalf("METRICS missing a %s line with shared=1:\n%s", q, strings.Join(info, "\n"))
		}
	}
	c.sendLine("QUIT")
	c.expect("OK bye")
}

// TestServerQueryAddUnknownSourceLive: a hostile client line on a running
// engine — QUERY ADD over a source that does not exist, so the plan fails
// inside the live AddQuery splice — gets an ERR instead of killing the
// daemon, the session goes on, and the standing query still delivers
// every pushed result. startServer's leak check covers the failed splice.
func TestServerQueryAddUnknownSourceLive(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.sendLine("SOURCE ext EXTERNAL POLICY block BUFFER 256")
	c.expect("OK source ext")
	c.sendLine("QUERY SELECT * FROM ext WHERE key < 50")
	c.expect("OK 0")
	c.sendLine("START gts BOUND 256")
	c.expect("OK running")
	push := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.sendLine(fmt.Sprintf("PUSH ext %d %d %d", (i+1)*1000, i%100, i))
		}
	}
	push(0, 1000)
	c.sendLine("QUERY ADD SELECT * FROM nosuch")
	for {
		line := c.readLine()
		if strings.HasPrefix(line, "OK") {
			t.Fatalf("QUERY ADD over an unknown source succeeded: %s", line)
		}
		if strings.HasPrefix(line, "ERR") {
			if want := `ERR ql: unknown source "nosuch"`; line != want {
				t.Fatalf("got %q, want %q", line, want)
			}
			break
		}
	}
	push(1000, 2000)
	c.sendLine("CLOSE ext")
	c.expect("OK closed ext")
	c.sendLine("WAIT")
	c.waitDone("0")
	c.expect("OK finished")
	if got := c.results["0"]; got != 1000 {
		t.Fatalf("standing query got %d results, want 1000", got)
	}
	c.sendLine("QUIT")
	c.expect("OK bye")
}

func TestServerConcurrentClients(t *testing.T) {
	addr := startServer(t)
	const clients = 4
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			errs <- func() error {
				conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
				if err != nil {
					return err
				}
				defer conn.Close()
				c := &client{t: t, conn: conn, r: bufio.NewReader(conn),
					results: make(map[string]int), rows: make(map[string][]string), dones: make(map[string]bool)}
				c.expect("OK hmtsd ready")
				c.sendLine("SOURCE s COUNT 5000 RATE 0 KEYS 0 99 SEED " +
					string(rune('1'+i)) + " STAMPED")
				c.expect("OK source")
				c.sendLine("QUERY SELECT * FROM s WHERE key < 50")
				c.expect("OK 0")
				c.sendLine("START hmts")
				c.expect("OK running")
				c.waitDone("0")
				if got := c.results["0"]; got < 2000 || got > 3000 {
					return fmt.Errorf("client %d got %d results", i, got)
				}
				return nil
			}()
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
