package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"testing"

	hmts "github.com/dsms/hmts"
)

// Ingestion throughput of the two wire encodings, measured per element
// through a live daemon: the line protocol pays parsing and per-line
// dispatch, the framed batch protocol amortizes both over 512 elements.
// BenchmarkResultEgress adds the way back: one RESULT line per element;
// BenchmarkResultEncode prices that line's encoding alone.
// `make bench` records these next to the scheduler numbers.

// benchSession starts an in-process daemon, dials it, and runs the setup
// commands, each of which must answer OK.
func benchSession(b *testing.B, setup ...string) (net.Conn, *bufio.Reader) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go newSession(conn).serve()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	b.Cleanup(func() { conn.Close() })
	r := bufio.NewReaderSize(conn, 1<<16)
	if err := awaitOK(r); err != nil {
		b.Fatal(err)
	}
	for _, cmd := range setup {
		if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
			b.Fatalf("write: %v", err)
		}
		if err := awaitOK(r); err != nil {
			b.Fatalf("%s: %v", cmd, err)
		}
	}
	return conn, r
}

// awaitOK reads lines until an OK, failing on ERR.
func awaitOK(r *bufio.Reader) error {
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		if strings.HasPrefix(line, "OK") {
			return nil
		}
		if strings.HasPrefix(line, "ERR") {
			return fmt.Errorf("server: %s", strings.TrimSpace(line))
		}
	}
}

var ingestSetup = []string{
	"SOURCE ext EXTERNAL POLICY block BUFFER 65536",
	"QUERY SELECT * FROM ext WHERE key < 0",
	"START gts",
}

func BenchmarkIngestLine(b *testing.B) {
	conn, r := benchSession(b, ingestSetup...)
	w := bufio.NewWriterSize(conn, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.WriteString("PUSH ext ")
		w.WriteString(strconv.Itoa(i + 1))
		w.WriteString(" 1 1.5\n")
	}
	w.Flush()
	// PUSH is silent, so a METRICS round-trip behind the pipelined lines
	// proves the daemon has parsed and admitted every one of them.
	if _, err := conn.Write([]byte("METRICS\n")); err != nil {
		b.Fatalf("write: %v", err)
	}
	if err := awaitOK(r); err != nil {
		b.Fatal(err)
	}
}

// ingestFrame builds one PUSHB frame of count constant elements.
func ingestFrame(count int) []byte {
	header := []byte("PUSHB ext " + strconv.Itoa(count) + "\n")
	buf := make([]byte, len(header)+count*frameRecordSize)
	copy(buf, header)
	for i := 0; i < count; i++ {
		rec := buf[len(header)+i*frameRecordSize:]
		binary.LittleEndian.PutUint64(rec, 1)
		binary.LittleEndian.PutUint64(rec[8:], 1)
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(1.5))
	}
	return buf
}

func BenchmarkIngestFramed(b *testing.B) {
	const frameN = 512
	conn, r := benchSession(b, ingestSetup...)
	full := ingestFrame(frameN)
	frames, rem := b.N/frameN, b.N%frameN
	total := frames
	if rem > 0 {
		total++
	}
	// Each frame answers one OK line; drain them concurrently so the
	// daemon's write buffer cannot stall the push pipeline.
	errc := make(chan error, 1)
	go func() {
		for n := 0; n < total; n++ {
			if err := awaitOK(r); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	w := bufio.NewWriterSize(conn, 1<<16)
	b.ResetTimer()
	for i := 0; i < frames; i++ {
		w.Write(full)
	}
	if rem > 0 {
		w.Write(ingestFrame(rem))
	}
	w.Flush()
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResultEgress is the full daemon round trip per element: 512-
// element PUSHB frames in, through SELECT * FROM ext, and one RESULT line
// per element back out, each read by the client. It prices the egress
// path — encoding, the session buffer and the writer's socket writes — on
// top of BenchmarkIngestFramed's ingest.
func BenchmarkResultEgress(b *testing.B) {
	const frameN = 512
	conn, r := benchSession(b,
		"SOURCE ext EXTERNAL POLICY block BUFFER 65536",
		"QUERY SELECT * FROM ext",
		"START gts")
	full := ingestFrame(frameN)
	frames, rem := b.N/frameN, b.N%frameN
	// Read concurrently: the daemon blocks its pushes once the client
	// stops draining results.
	errc := make(chan error, 1)
	go func() {
		for n := 0; n < b.N; {
			line, err := r.ReadSlice('\n')
			if err != nil {
				errc <- err
				return
			}
			switch {
			case bytes.HasPrefix(line, []byte("RESULT ")):
				n++
			case bytes.HasPrefix(line, []byte("ERR")):
				errc <- fmt.Errorf("server: %s", bytes.TrimSpace(line))
				return
			}
		}
		errc <- nil
	}()
	w := bufio.NewWriterSize(conn, 1<<16)
	b.ResetTimer()
	for i := 0; i < frames; i++ {
		w.Write(full)
	}
	if rem > 0 {
		w.Write(ingestFrame(rem))
	}
	w.Flush()
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResultEncode prices encoding one RESULT line, without the
// session lock or the socket: integral values (a window COUNT) take the
// integer path, fractional ones strconv's shortest-float formatting.
func BenchmarkResultEncode(b *testing.B) {
	for _, c := range []struct {
		name string
		val  func(i int) float64
	}{
		{"integral", func(i int) float64 { return float64(i % 5000) }},
		{"fractional", func(i int) float64 { return float64(i%5000) + 0.5 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			es := make([]hmts.Element, 1024)
			for i := range es {
				es[i] = hmts.Element{TS: 1_700_000_000_000_000_000 + int64(i)*1000, Key: int64(i % 1000), Val: c.val(i)}
			}
			prefix := resultPrefix(3)
			buf := make([]byte, 0, 64<<10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(buf) > 60<<10 {
					buf = buf[:0]
				}
				buf = appendResult(buf, prefix, es[i&(len(es)-1)])
			}
		})
	}
}
