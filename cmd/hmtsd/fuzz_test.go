// Fuzz coverage for the hmtsd wire protocol: the three places raw client
// bytes meet parsing code, plus the result encoder. The parsing invariants
// are the session's safety properties — no panic on any input, and every
// allocation bounded by a protocol constant, so a hostile or desynced
// client can at worst get its own session aborted. The encoder's
// invariant is byte-identity with the format the protocol documents.
package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	hmts "github.com/dsms/hmts"
)

func FuzzReadLine(f *testing.F) {
	f.Add([]byte("PUSH s 1 2 3.5\n"))
	f.Add([]byte("QUERY count BY key WINDOW 100ms\r\n"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("no terminator at all"))
	f.Add(bytes.Repeat([]byte{'x'}, 5000))            // spans bufio chunks
	f.Add(append(bytes.Repeat([]byte{0}, 100), '\n')) // NULs are data
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(data), 64) // tiny buffer: force the ErrBufferFull path
		for {
			line, err := readLine(r)
			if err != nil {
				if err != io.EOF && err != errLineTooLong && err != io.ErrUnexpectedEOF {
					// Only the protocol's own errors may surface from a
					// memory reader.
					t.Fatalf("unexpected error: %v", err)
				}
				if err == errLineTooLong && len(data) <= maxLine {
					t.Fatalf("line-too-long on %d input bytes (max %d)", len(data), maxLine)
				}
				return
			}
			if len(line) > maxLine {
				t.Fatalf("returned line of %d bytes exceeds maxLine", len(line))
			}
			if strings.ContainsAny(line, "\n") {
				t.Fatalf("terminator leaked into line: %q", line)
			}
		}
	})
}

func FuzzPushParse(f *testing.F) {
	f.Add("sensor 1000 42 3.14")
	f.Add("S -1 -2 -0.5")
	f.Add("s 1 2 NaN")
	f.Add("s 1 2 1e309")
	f.Add("")
	f.Add("a b c d e")
	f.Add("s 9223372036854775807 -9223372036854775808 2.2250738585072011e-308")
	f.Fuzz(func(t *testing.T, rest string) {
		name, e, err := parsePush(rest)
		if err != nil {
			return
		}
		if name == "" {
			t.Fatal("accepted element with empty source name")
		}
		if name != strings.ToLower(name) {
			t.Fatalf("name not canonicalized: %q", name)
		}
		// A successful parse must round-trip through the wire encoding.
		var rec [frameRecordSize]byte
		binary.LittleEndian.PutUint64(rec[0:], uint64(e.TS))
		binary.LittleEndian.PutUint64(rec[8:], uint64(e.Key))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(e.Val))
		var out [1]hmts.Element
		decodeFrame(rec[:], out[:])
		if out[0].TS != e.TS || out[0].Key != e.Key ||
			(out[0].Val != e.Val && !(math.IsNaN(out[0].Val) && math.IsNaN(e.Val))) {
			t.Fatalf("wire round trip changed element: %+v -> %+v", e, out[0])
		}
	})
}

func FuzzFrameDecode(f *testing.F) {
	f.Add("sensor 2", bytes.Repeat([]byte{1}, 2*frameRecordSize))
	f.Add("s 0", []byte{})
	f.Add("s 1", []byte{1, 2, 3}) // short body
	f.Add("s 1048576", []byte{})  // exactly maxFrameCount
	f.Add("s 1048577", []byte{})  // one past the bound
	f.Add("s -1", []byte{})
	f.Add("s 99999999999999999999", []byte{})
	f.Fuzz(func(t *testing.T, header string, body []byte) {
		name, count, err := parseFrameHeader(header)
		if err != nil {
			return
		}
		if name == "" {
			t.Fatal("accepted frame with empty source name")
		}
		if count < 0 || count > maxFrameCount {
			t.Fatalf("count %d escaped the protocol bound", count)
		}
		// Decode only what the body actually provides — the session layer
		// guarantees a full frame via io.ReadFull; here we check decode
		// never reads past a buffer sized to its element slice.
		n := len(body) / frameRecordSize
		if n > count {
			n = count
		}
		els := make([]hmts.Element, n)
		decodeFrame(body[:n*frameRecordSize], els)
	})
}

// FuzzResultLine pins the hand-rolled RESULT encoder to the protocol's
// documented format: for any id, ts, key and val its bytes equal
// fmt.Sprintf("RESULT %d %d %d %g\n", ...), and it appends rather than
// overwrites.
func FuzzResultLine(f *testing.F) {
	f.Add(0, int64(0), int64(0), 0.0)
	f.Add(7, int64(1_000_000), int64(-3), 1.5)
	f.Add(1, int64(math.MinInt64), int64(math.MaxInt64), math.NaN())
	f.Add(2, int64(math.MaxInt64), int64(math.MinInt64), math.Inf(1))
	f.Add(3, int64(-1), int64(1), math.Inf(-1))
	f.Add(4, int64(5), int64(6), math.Copysign(0, -1))
	f.Add(5, int64(5), int64(6), 1e21)
	f.Add(6, int64(5), int64(6), 1e-7)
	f.Add(8, int64(5), int64(6), math.SmallestNonzeroFloat64)
	f.Add(math.MaxInt, int64(5), int64(6), math.MaxFloat64)
	f.Add(math.MinInt, int64(5), int64(6), 123456789.0)
	f.Fuzz(func(t *testing.T, id int, ts, key int64, val float64) {
		want := fmt.Sprintf("RESULT %d %d %d %g\n", id, ts, key, val)
		got := appendResult([]byte("x"), id, hmts.Element{TS: ts, Key: key, Val: val})
		if string(got) != "x"+want {
			t.Fatalf("appendResult = %q, want %q", got[1:], want)
		}
	})
}

// TestFrameDecodeBoundedAllocation pins the safety property behind
// maxFrameCount: the per-frame buffers a hostile header can make the
// session allocate are capped at 24MB + element slice, regardless of the
// advertised count.
func TestFrameDecodeBoundedAllocation(t *testing.T) {
	for _, rest := range []string{
		"s 1048577", "s 2147483647", "s 9223372036854775807", "s 1e9",
	} {
		if _, _, err := parseFrameHeader(rest); err == nil {
			t.Errorf("%q: oversized count accepted", rest)
		}
	}
	name, count, err := parseFrameHeader("S 1048576")
	if err != nil || name != "s" || count != maxFrameCount {
		t.Fatalf("max legal frame rejected: %v", err)
	}
}
