package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hmts "github.com/dsms/hmts"
)

// hmtsdPath is the daemon binary wire-agg spawns, relative to the
// checkout root; run.sh builds it there.
var hmtsdPath = ".bench_build/bin/hmtsd"

// The wire-agg deployment. One loopback connection per phase carries the
// PUSHB frames in and the RESULT lines out.
const (
	wireQuery  = "SELECT count(*) FROM in WHERE val > 0 GROUP BY KEY WINDOW 1s"
	wireFrame  = 256 // elements per PUSHB frame in closed-loop phases
	wireCapN   = 100_000
	wireLoRate = 20_000
	wireHiRate = 200_000
	wireSetups = 32
	wireStepNS = 50_000
)

// daemon is a spawned hmtsd.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	logs sync.WaitGroup
}

// startDaemon spawns hmtsd at GOMAXPROCS procs on an ephemeral loopback
// port and waits until it listens.
func startDaemon(procs int) (*daemon, error) {
	cmd := exec.Command(hmtsdPath, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", hmtsdPath, err)
	}
	d := &daemon{cmd: cmd}
	lines := bufio.NewScanner(stderr)
	for lines.Scan() {
		if _, addr, ok := strings.Cut(lines.Text(), "listening on "); ok {
			d.addr = strings.TrimSpace(addr)
			break
		}
	}
	if d.addr == "" {
		d.stop()
		return nil, fmt.Errorf("hmtsd exited before listening")
	}
	// Keep draining the daemon's log so it never blocks on a full pipe;
	// anything it logs after start-up is worth seeing.
	d.logs.Add(1)
	go func() {
		defer d.logs.Done()
		for lines.Scan() {
			fmt.Fprintf(os.Stderr, "hmtsd: %s\n", lines.Text())
		}
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop kills the daemon and waits for it and its log reader to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // already exited is fine
	d.logs.Wait()
	_ = d.cmd.Wait() // killed: the exit status says so and nothing more
}

// conn is one client session with the daemon.
type conn struct {
	c   net.Conn
	r   *bufio.Reader
	wmu sync.Mutex // orders whole frames against METRICS requests
	w   *bufio.Writer
}

// dial connects and registers the workload's source and query, then
// starts the engine. It returns the QUERY round trip.
func dial(addr string) (*conn, int64, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, 0, err
	}
	c := &conn{c: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriterSize(nc, 64<<10)}
	fail := func(err error) (*conn, int64, error) {
		nc.Close()
		return nil, 0, err
	}
	if _, err := c.expect("OK hmtsd"); err != nil {
		return fail(err)
	}
	if _, err := c.call(fmt.Sprintf("SOURCE in EXTERNAL POLICY block BUFFER %d", ingressBuffer), "OK source"); err != nil {
		return fail(err)
	}
	qrtt, err := c.call("QUERY "+wireQuery, "OK 0")
	if err != nil {
		return fail(err)
	}
	if _, err := c.call(fmt.Sprintf("START hmts BOUND %d", queueBound), "OK running"); err != nil {
		return fail(err)
	}
	return c, qrtt, nil
}

// call sends one command and reads its one-line reply, which must start
// with want. It returns the round trip. Only valid before the result
// reader owns the connection.
func (c *conn) call(cmd, want string) (int64, error) {
	t0 := now()
	if _, err := fmt.Fprintf(c.w, "%s\n", cmd); err != nil {
		return 0, err
	}
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	if _, err := c.expect(want); err != nil {
		return 0, fmt.Errorf("%s: %w", cmd, err)
	}
	return now() - t0, nil
}

func (c *conn) expect(want string) (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, want) {
		return "", fmt.Errorf("reply %q, want %q", line, want)
	}
	return line, nil
}

// frame encodes es as one PUSHB frame into buf and returns it.
func frame(buf []byte, es []hmts.Element) []byte {
	buf = append(buf[:0], "PUSHB in "...)
	buf = strconv.AppendInt(buf, int64(len(es)), 10)
	buf = append(buf, '\n')
	for _, e := range es {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.TS))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Key))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Val))
	}
	return buf
}

// send writes one frame and flushes it, holding the write lock so a
// METRICS request never lands inside a frame body.
func (c *conn) send(b []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	return c.w.Flush()
}

// sendLine writes one command line.
func (c *conn) sendLine(s string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.w.WriteString(s + "\n"); err != nil {
		return err
	}
	return c.w.Flush()
}

// reader consumes everything the daemon sends after START: RESULT lines,
// PUSHB acknowledgements, METRICS replies and the final DONE.
type reader struct {
	in       input
	lat      *stampLog      // nil: do not time results
	frameAt  []atomic.Int64 // send time of each frame, for the ack round trip
	ack      Hist
	d        digest
	bytes    int64
	last     int64
	acks     int
	accepted int64
	dropped  int64

	metrics chan []string // INFO lines of each METRICS reply
	info    []string
}

func newReader(in input, frames int) *reader {
	return &reader{in: in, frameAt: make([]atomic.Int64, frames), metrics: make(chan []string, 1)}
}

// run reads until DONE or an error. It parses RESULT lines without
// allocating and takes one clock reading per socket read, not per line.
func (rd *reader) run(br *bufio.Reader) error {
	var t int64
	for {
		fresh := br.Buffered() == 0
		line, err := br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
		if fresh {
			t = now()
		}
		rd.bytes += int64(len(line))
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, []byte("RESULT ")):
			ts, key, val, ok := parseResult(line[len("RESULT "):])
			if !ok {
				return fmt.Errorf("malformed %q", line)
			}
			rd.d.add(ts, key, val)
			if rd.lat != nil {
				one := [1]hmts.Element{{TS: hmts.Time(ts)}}
				rd.lat.record(rd.in, one[:], t)
			}
			rd.last = t
		case bytes.HasPrefix(line, []byte("INFO ")):
			rd.info = append(rd.info, string(line[len("INFO "):]))
		case bytes.Equal(line, []byte("OK metrics")):
			select {
			case rd.metrics <- rd.info:
			default: // the poller has stopped waiting
			}
			rd.info = nil
		case bytes.HasPrefix(line, []byte("OK closed")):
		case bytes.HasPrefix(line, []byte("OK ")):
			a, dr, ok := parseAck(line[len("OK "):])
			if !ok {
				return fmt.Errorf("unexpected %q", line)
			}
			if rd.acks < len(rd.frameAt) {
				rd.ack.Record(now() - rd.frameAt[rd.acks].Load())
			}
			rd.acks++
			rd.accepted += a
			rd.dropped += dr
		case bytes.HasPrefix(line, []byte("DONE ")):
			return nil
		default:
			return fmt.Errorf("unexpected %q", line)
		}
	}
}

// parseResult parses "<id> <ts> <key> <val>".
func parseResult(b []byte) (ts, key int64, val float64, ok bool) {
	f := [4][]byte{}
	for i := range f {
		b = bytes.TrimLeft(b, " ")
		j := bytes.IndexByte(b, ' ')
		if j < 0 {
			j = len(b)
		}
		f[i], b = b[:j], b[j:]
	}
	ts, ok1 := atoi(f[1])
	key, ok2 := atoi(f[2])
	v, ok3 := atoi(f[3])
	if !ok1 || !ok2 {
		return 0, 0, 0, false
	}
	if !ok3 {
		// Not an integer count: fall back to the general float syntax.
		x, err := strconv.ParseFloat(string(f[3]), 64)
		if err != nil {
			return 0, 0, 0, false
		}
		return ts, key, x, true
	}
	return ts, key, float64(v), true
}

func parseAck(b []byte) (accepted, dropped int64, ok bool) {
	a, d, found := bytes.Cut(b, []byte(" "))
	if !found {
		return 0, 0, false
	}
	x, ok1 := atoi(a)
	y, ok2 := atoi(d)
	return x, y, ok1 && ok2
}

func atoi(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// session is one connection whose reader goroutine consumes everything
// the daemon sends, from START until DONE.
type session struct {
	c    *conn
	rd   *reader
	done chan error
}

// openSession connects, starts the engine and the reader. lat, when not
// nil, makes the reader time every result against it.
func openSession(d *daemon, in input, frames int, lat *stampLog) (*session, error) {
	c, _, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	s := &session{c: c, rd: newReader(in, frames), done: make(chan error, 1)}
	s.rd.lat = lat
	go func() { s.done <- s.rd.run(c.r) }()
	return s, nil
}

// finish closes the source, waits for the reader to see DONE and closes
// the connection.
func (s *session) finish() (*reader, error) {
	err := s.c.sendLine("CLOSE in")
	if err != nil {
		s.c.c.Close() // unblocks the reader
		<-s.done
		return nil, err
	}
	err = <-s.done
	s.c.c.Close()
	if err != nil {
		return nil, err
	}
	return s.rd, nil
}

// abort drops the connection and waits for the reader.
func (s *session) abort() {
	s.c.c.Close()
	<-s.done
}

// pushing runs push with METRICS polling around it in the traced run.
func (r *run) pushing(s *session, push func() error) error {
	if r.tr == nil {
		return push()
	}
	stop := r.pollWire(s.c, s.rd)
	defer stop()
	return push()
}

// pollWire sends METRICS every pollEvery and times each round trip, until
// the returned stop function is called.
func (r *run) pollWire(c *conn, rd *reader) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A reply to a request the previous poller gave up on may be
		// waiting; it must not be taken for this poller's first reply.
		select {
		case <-rd.metrics:
		default:
		}
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			t0 := now()
			if c.sendLine("METRICS") != nil {
				return
			}
			select {
			case info := <-rd.metrics:
				r.tr.record(spanMetrics, t0, now())
				r.wireInfo = info
			case <-quit:
				// The reply may still come; the reader's buffered
				// channel takes one, and no further request follows.
				return
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// checkWire checks a finished session against the reference.
func (r *run) checkWire(rd *reader, want digest, n int, phase string) {
	r.attempted += int64(n)
	if rd.dropped > 0 || rd.accepted != int64(n) {
		r.fail(int64(n)-rd.accepted, "%s: daemon accepted %d of %d (%d dropped)", phase, rd.accepted, n, rd.dropped)
	}
	r.checkDigest(phase, rd.d, want)
	r.accepted += uint64(rd.accepted)
	r.dropped += uint64(rd.dropped)
}

// wire runs wire-agg against two spawned daemons, one at GOMAXPROCS =
// nproc and one at 1; it implements phases.
type wire struct {
	r      *run
	dN, d1 *daemon
	// queries holds the QUERY → OK round trips of the set-ups, in us.
	queries []float64
}

func runWireAgg(r *run) {
	w := &wire{r: r}
	var err error
	if w.dN, err = startDaemon(r.nproc); err != nil {
		r.fail(1, "%v", err)
		return
	}
	defer w.dN.stop()
	if w.d1, err = startDaemon(1); err != nil {
		r.fail(1, "%v", err)
		return
	}
	defer w.d1.stop()
	r.measure(w, input{keys: keys, step: wireStepNS}, wireLoRate, wireHiRate)
}

// setup times set-ups from daemon spawn through connect, SOURCE, QUERY
// and START.
func (w *wire) setup() []float64 {
	r := w.r
	var ts []float64
	for i := 0; i < wireSetups/cycles; i++ {
		t0 := now()
		r.attempted++
		d, err := startDaemon(r.nproc)
		if err != nil {
			r.fail(1, "setup: %v", err)
			return ts
		}
		c, qrtt, err := dial(d.addr)
		t1 := now()
		if err != nil {
			d.stop()
			r.fail(1, "setup: %v", err)
			return ts
		}
		r.tr.record(spanQuery, t1-qrtt, t1)
		ts = append(ts, float64(t1-t0)/1e9)
		w.queries = append(w.queries, float64(qrtt)/1e3)
		c.c.Close()
		d.stop()
	}
	return ts
}

// capacity pushes wireCapN elements per round, one session per round, as
// fast as the daemon's Block backpressure admits them, and times each
// round from the first frame written to the last result read. The CPU it
// reports is the daemon's.
func (w *wire) capacity(in input, procs int, budget time.Duration) (rounds []round) {
	r := w.r
	d := w.dN
	if procs == 1 {
		d = w.d1
	}
	want := refWindowCount(in, wireCapN, window)
	frames := (wireCapN + wireFrame - 1) / wireFrame
	es := make([]hmts.Element, wireFrame)
	var buf []byte
	var writeNS, written int64
	for start, i := now(), 0; i == 0 || now()-start < int64(budget); i++ {
		phase := fmt.Sprintf("capacity round at %d procs", procs)
		runtime.GC()
		c0, err := procCPU(d.pid())
		if err != nil {
			r.fail(1, "daemon CPU: %v", err)
			return rounds
		}
		s, err := openSession(d, in, frames, nil)
		if err != nil {
			r.fail(int64(wireCapN), "%s: %v", phase, err)
			return rounds
		}
		r.tr.beginPhase()
		steal := startSteal()
		t0 := now()
		err = r.pushing(s, func() error {
			for f := 0; f < frames; f++ {
				first := f * wireFrame
				b := es[:min(wireFrame, wireCapN-first)]
				in.fill(b, first)
				buf = frame(buf, b)
				p0 := now()
				s.rd.frameAt[f].Store(p0)
				if err := s.c.send(buf); err != nil {
					return err
				}
				p1 := now()
				writeNS += p1 - p0
				r.tr.record(spanPush, p0, p1)
			}
			return nil
		})
		var rd *reader
		if err != nil {
			s.abort()
		} else {
			rd, err = s.finish()
		}
		stolen := steal.stop()
		r.tr.endPhase()
		if err != nil {
			r.fail(int64(wireCapN), "%s: %v", phase, err)
			return rounds
		}
		c1, err := procCPU(d.pid())
		if err != nil {
			r.fail(1, "daemon CPU: %v", err)
			return rounds
		}
		written += wireCapN
		if rd.last > t0 {
			rounds = append(rounds, round{rate: float64(wireCapN) / (float64(rd.last-t0) / 1e9), steal: stolen, cpu: c1 - c0, elems: wireCapN})
		} else {
			r.fail(1, "%s: no result delivered", phase)
		}
		r.checkWire(rd, want, wireCapN, phase)
		if r.tr != nil && procs == r.nproc {
			r.layer["wire.frame_write_ns_per_elem"] = float64(writeNS) / float64(written)
			r.layer["wire.ack_rtt_p50_us"] = rd.ack.Quantile(0.5) / 1e3
			r.layer["wire.result_bytes_per_elem"] = float64(rd.bytes) / float64(wireCapN)
		}
	}
	return rounds
}

// latency opens a session on the nproc daemon for an open-loop phase at
// rate elements per second: one PUSHB frame per 1 ms tick, its admission
// stamp taken just before the frame write.
func (w *wire) latency(in input, rate, slices, perSlice int) latencyPhase {
	perTick := rate / 1000
	stamps := newStampLog(slices, perSlice, perTick)
	s, err := openSession(w.dN, in, slices*perSlice, stamps)
	if err != nil {
		w.r.fail(1, "latency at %d/s: %v", rate, err)
	}
	return &wireLatency{r: w.r, s: s, in: in, rate: rate, perTick: perTick, stamps: stamps}
}

type wireLatency struct {
	r       *run
	s       *session // nil after a failure
	in      input
	rate    int
	perTick int
	stamps  *stampLog
	next    int // next tick
	buf     []byte
}

func (l *wireLatency) push() float64 {
	r := l.r
	ticks := min(l.stamps.perSlice, len(l.stamps.t)-l.next)
	if l.s == nil || ticks <= 0 {
		return 0
	}
	r.tr.beginPhase()
	steal := startSteal()
	err := r.pushing(l.s, func() error {
		var werr error
		// The client sleeps between ticks: spinning would take a CPU from
		// the daemon, which runs in its own process.
		r.openLoop(l.next, ticks, l.perTick, false, func(k int, batch []hmts.Element) {
			if werr != nil {
				return
			}
			l.in.fill(batch, k*l.perTick)
			l.buf = frame(l.buf, batch)
			t := now()
			l.stamps.t[k].Store(t)
			l.s.rd.frameAt[k].Store(t)
			werr = l.s.c.send(l.buf)
			r.tr.record(spanPush, t, now())
		})
		return werr
	})
	stolen := steal.stop()
	r.tr.endPhase()
	l.next += ticks
	if err != nil {
		r.fail(int64(ticks*l.perTick), "latency at %d/s: %v", l.rate, err)
		l.s.abort()
		l.s = nil
	}
	return stolen
}

func (l *wireLatency) finish() []Hist {
	r := l.r
	if l.s == nil {
		return nil
	}
	n := l.next * l.perTick
	rd, err := l.s.finish()
	if err != nil {
		r.fail(int64(n), "latency at %d/s: %v", l.rate, err)
		return nil
	}
	r.checkWire(rd, refWindowCount(l.in, n, window), n, fmt.Sprintf("latency at %d/s", l.rate))
	return l.stamps.slices()
}

func (w *wire) peakRSS() (int64, error) { return peakRSS(w.dN.pid()) }

func (w *wire) traced() {
	r := w.r
	r.layer["ql.query_rtt_us"] = median(w.queries)
	r.layer["wire.daemon_cpu_ns_per_elem"] = r.e2e["cpu_ns_per_elem"]
	if p := r.e2e["lat_hi_p50_us"] * 1e3; p > 0 {
		r.layer["trace.lat_attributed_share"] = r.tr.p50(spanPush) / p
	}
	r.layer["wire.metrics_rtt_ms"] = r.tr.p50(spanMetrics) / 1e6
	r.wireInfoLayers()
}

// wireInfoLayers reads operator, queue and ingress counters from the last
// METRICS reply of the traced run.
func (r *run) wireInfoLayers() {
	var ops []hmts.OpMetrics
	section := ""
	for _, l := range r.wireInfo {
		if vos, ok := strings.CutPrefix(l, "virtual operators:"); ok {
			r.layer["sched.vos"] = float64(strings.Count(vos, "[") - 1)
			continue
		}
		if strings.HasSuffix(l, ":") && !strings.HasPrefix(l, " ") {
			section = strings.TrimSuffix(l, ":")
			continue
		}
		kv := fieldsKV(l)
		switch section {
		case "operators":
			i := strings.Index(l, " in=")
			if i < 0 {
				continue
			}
			ops = append(ops, hmts.OpMetrics{
				Name:   strings.TrimSpace(l[:i]),
				In:     uint64(num(kv["in"])),
				Out:    uint64(num(kv["out"])),
				CostNS: num(strings.TrimSuffix(kv["cost"], "ns")),
			})
		case "queues":
			r.layer["queue.count"]++
			r.layer["queue.len_max"] = max(r.layer["queue.len_max"], num(kv["max"]))
			r.layer["queue.full_blocks"] += num(kv["blocks"])
			r.layer["queue.blocked_ms"] += num(kv["blockedms"])
			r.layer["queue.overshoot"] += num(kv["over"])
		case "ingest":
			r.layer["ingest.backlog_max"] = max(r.layer["ingest.backlog_max"], num(kv["max"]))
		}
	}
	r.opLayers(ops)
	r.layer["plan.ops"] = float64(len(ops))
}

func fieldsKV(l string) map[string]string {
	kv := map[string]string{}
	for _, f := range strings.Fields(l) {
		if k, v, ok := strings.Cut(f, "="); ok {
			kv[k] = v
		}
	}
	return kv
}

func num(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}
