package ql

import (
	"strings"
	"testing"

	hmts "github.com/dsms/hmts"
)

const demoScript = `
-- two sources sharing a key domain
CREATE SOURCE a COUNT 2000 RATE 0 KEYS 0 99 SEED 1 STAMPED;
CREATE SOURCE b COUNT 2000 RATE 0 KEYS 0 99 SEED 2 STAMPED;

SELECT * FROM a WHERE key < 50;
SELECT count(*) FROM b GROUP BY KEY WINDOW 1h;
SET MODE gts chain;
`

func TestParseScript(t *testing.T) {
	s, err := ParseScript(demoScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sources) != 2 || len(s.Queries) != 2 {
		t.Fatalf("parsed %d sources, %d queries", len(s.Sources), len(s.Queries))
	}
	if s.Mode != hmts.ModeGTS || s.Strategy != "chain" {
		t.Fatalf("mode %v strategy %q", s.Mode, s.Strategy)
	}
	a := s.Sources[0]
	if a.Name != "a" || a.Count != 2000 || a.KeyHi != 99 || a.Seed != 1 || !a.Stamped {
		t.Fatalf("source a parsed as %+v", a)
	}
}

func TestParseScriptErrors(t *testing.T) {
	cases := []string{
		"",                                 // no SELECT
		"CREATE SOURCE s COUNT 10;",        // no SELECT
		"SELECT * FROM s; BOGUS STMT",      // unknown statement
		"CREATE SOURCE s; SELECT * FROM s", // missing COUNT
		"CREATE SOURCE s COUNT 10 KEYS 9 1; SELECT * FROM s",                  // hi < lo
		"CREATE SOURCE s COUNT 10; CREATE SOURCE s COUNT 10; SELECT * FROM s", // duplicate
		"SET MODE warp; SELECT * FROM s",                                      // unknown mode
		"SET MODE gts fifo extra; SELECT * FROM s",
		"SET MODE gts warp; SELECT * FROM s",          // unknown strategy
		"SET MODE gts roundrobin; SELECT * FROM s",    // retired strategy
		"SET MODE hmts maxqueue; SELECT * FROM s",     // retired strategy
		"SET MODE gts; SET MODE ots; SELECT * FROM s", // double SET MODE
		"CREATE SOURCE s COUNT ten; SELECT * FROM s",  // bad number
		"CREATE SOURCE s COUNT 10 WIBBLE 3; SELECT * FROM s",
	}
	for _, c := range cases {
		if _, err := ParseScript(c); err == nil {
			t.Errorf("ParseScript(%q) should fail", c)
		}
	}
}

// TestParseSourceRate: RATE takes 0 (as fast as possible) or a finite
// positive rate whose period fits int64 nanoseconds. A NaN, infinite,
// negative or vanishingly small rate once parsed, and its source never
// finished: the generator's period 1e9/hz was NaN or overflowed int64.
func TestParseSourceRate(t *testing.T) {
	for _, rate := range []string{"0", "1", "0.5", "1e6", "1e-9"} {
		if _, err := ParseSource("s COUNT 10 RATE " + rate); err != nil {
			t.Errorf("RATE %s: %v", rate, err)
		}
	}
	for _, rate := range []string{"NaN", "1e-300", "Inf", "-Inf", "-5", "5e-324"} {
		_, err := ParseSource("s COUNT 10 RATE " + rate)
		if err == nil || !strings.HasPrefix(err.Error(), "ql: bad source option RATE") {
			t.Errorf("RATE %s: got %v, want a bad source option RATE error", rate, err)
		}
	}
}

func TestParseScriptNeverPanics(t *testing.T) {
	// Garbage inputs must produce errors, not panics.
	inputs := []string{
		";;;;", "select", "create source", "set mode",
		"SELECT * FROM s WHERE ((((", "CREATE SOURCE \x00 COUNT 1",
		strings.Repeat("a ", 10000), "SELECT * FROM s WINDOW -5s",
	}
	for _, in := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("ParseScript(%q) panicked: %v", in, r)
				}
			}()
			_, _ = ParseScript(in)
		}()
	}
}

func TestScriptExecute(t *testing.T) {
	s, err := ParseScript(demoScript)
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	// Query 0: keys uniform over [0,99], predicate key < 50 -> ~half.
	if r := results[0]; r.Count < 800 || r.Count > 1200 {
		t.Fatalf("q0 count %d, want ~1000", r.Count)
	}
	// Query 1: continuous aggregate emits once per input element.
	if r := results[1]; r.Count != 2000 {
		t.Fatalf("q1 count %d, want 2000", r.Count)
	}
	if len(results[0].Sample) != SampleCap {
		t.Fatalf("sample len %d", len(results[0].Sample))
	}
	if results[0].Query == "" || results[0].Elapsed <= 0 {
		t.Fatalf("result metadata missing: %+v", results[0])
	}
}

func TestScriptExecuteJoin(t *testing.T) {
	script := `
CREATE SOURCE l COUNT 500 RATE 0 KEYS 0 19 SEED 3 STAMPED;
CREATE SOURCE r COUNT 500 RATE 0 KEYS 0 19 SEED 4 STAMPED;
SELECT * FROM l JOIN r WINDOW 1h;
SET MODE ots;
`
	s, err := ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Count == 0 {
		t.Fatal("join produced nothing")
	}
}

func TestScriptExecuteUnknownSource(t *testing.T) {
	s, err := ParseScript("SELECT * FROM ghost")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(); err == nil {
		t.Fatal("want unknown-source error")
	}
}
