package ql

import (
	"strings"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/stream"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical rendering; "" means parse error expected
	}{
		{"SELECT * FROM s", "select * from s"},
		{"select key from s;", "select key from s"},
		{"SELECT avg(val) FROM s WINDOW 60s", "select avg(val) from s window 1m0s"},
		{"SELECT count(*) FROM s WINDOW 1m GROUP BY KEY", ""}, // GROUP BY before WINDOW... see below
		{"SELECT count(*) FROM s GROUP BY KEY WINDOW 1m", "select count(*) from s group by key window 1m0s"},
		{"SELECT * FROM a JOIN b WINDOW 5s", "select * from a join b window 5s"},
		{"SELECT * FROM s WHERE val > 10 AND key % 4 = 0", "select * from s where ((val > 10) and ((key % 4) = 0))"},
		{"SELECT * FROM s WHERE NOT (val < 0 OR val > 1)", "select * from s where (not ((val < 0) or (val > 1)))"},
		{"SELECT max(key) FROM s WINDOW 500ms", "select max(key) from s window 500ms"},
		{"SELECT sum(val) FROM s WINDOW 100 ROWS", "select sum(val) from s window 100 rows"},
		{"SELECT sum(val) FROM s GROUP BY KEY WINDOW 8 ROWS", "select sum(val) from s group by key window 8 rows"},
		{"SELECT sum(val) FROM s WINDOW 0 ROWS", ""},   // empty rows window
		{"SELECT sum(val) FROM s WINDOW 100 COLS", ""}, // bad unit
		{"SELECT * FROM s WINDOW 100 ROWS", ""},        // rows window without aggregate
		{"SELECT * FROM s WHERE -val < 1", "select * from s where ((-val) < 1)"},
		{"SELECT nope FROM s", ""},
		{"SELECT * FROM", ""},
		{"SELECT avg(val) FROM s", ""},          // aggregate without window
		{"SELECT * FROM s WINDOW 5s", ""},       // window without aggregate
		{"SELECT * FROM s GROUP BY KEY", ""},    // group-by without aggregate
		{"SELECT * FROM s WHERE val + 1", ""},   // non-boolean WHERE
		{"SELECT * FROM s WHERE val AND 1", ""}, // AND over numbers
		{"SELECT * FROM a JOIN b", ""},          // join without window
		{"SELECT * FROM s trailing", ""},
		{"", ""},
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if c.want == "" {
			if err == nil {
				t.Errorf("Parse(%q) succeeded as %q, want error", c.in, q)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseWindowOrder(t *testing.T) {
	// GROUP BY must precede WINDOW in this grammar; the reverse is a
	// trailing-token error.
	if _, err := Parse("SELECT count(*) FROM s WINDOW 1m GROUP BY KEY"); err == nil {
		t.Fatal("expected parse error for WINDOW before GROUP BY")
	}
}

func TestExprEval(t *testing.T) {
	q, err := Parse("SELECT * FROM s WHERE key % 3 = 1 AND val * 2 >= 10 OR ts < 5")
	if err != nil {
		t.Fatal(err)
	}
	where := Compile(q.Where)
	cases := []struct {
		e    stream.Element
		want bool
	}{
		{stream.Element{Key: 1, Val: 5, TS: 10}, true},   // 1%3=1 && 10>=10
		{stream.Element{Key: 1, Val: 4, TS: 10}, false},  // second conjunct fails
		{stream.Element{Key: 2, Val: 50, TS: 10}, false}, // first fails
		{stream.Element{Key: 2, Val: 0, TS: 4}, true},    // ts < 5 rescues
	}
	for _, c := range cases {
		if got := where(c.e); got != c.want {
			t.Errorf("where(%v) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestPlanAndRunSelection(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("s", hmts.GenerateStamped(1000, 1e6, hmts.SeqKeys()))
	q, err := Parse("SELECT * FROM s WHERE key % 10 < 3")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Plan(eng, map[string]*hmts.Stream{"s": src}, q)
	if err != nil {
		t.Fatal(err)
	}
	sink := out.Collect("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeGTS})
	eng.Wait()
	sink.Wait()
	if got := sink.Len(); got != 300 {
		t.Fatalf("got %d results, want 300", got)
	}
}

func TestPlanAndRunAggregate(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("s", hmts.GenerateStamped(400, 1000, func(i int) hmts.Element {
		return hmts.Element{Key: int64(i % 2), Val: float64(i)}
	}))
	q, err := Parse("SELECT count(*) FROM s GROUP BY KEY WINDOW 1h")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Plan(eng, map[string]*hmts.Stream{"s": src}, q)
	if err != nil {
		t.Fatal(err)
	}
	sink := out.Collect("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeDI})
	eng.Wait()
	sink.Wait()
	els := sink.Elements()
	if len(els) != 400 {
		t.Fatalf("continuous aggregate should emit 400, got %d", len(els))
	}
	final := map[int64]float64{}
	for _, e := range els {
		final[e.Key] = e.Val
	}
	if final[0] != 200 || final[1] != 200 {
		t.Fatalf("final group counts %v, want 200 each", final)
	}
}

func TestPlanAndRunJoin(t *testing.T) {
	eng := hmts.New()
	a := eng.Source("a", hmts.GenerateStamped(500, 1e6, hmts.UniformKeys(0, 20, 1)))
	b := eng.Source("b", hmts.GenerateStamped(500, 1e6, hmts.UniformKeys(0, 20, 2)))
	q, err := Parse("SELECT * FROM a JOIN b WINDOW 1h WHERE key < 10")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Plan(eng, map[string]*hmts.Stream{"a": a, "b": b}, q)
	if err != nil {
		t.Fatal(err)
	}
	sink := out.Collect("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})
	eng.Wait()
	sink.Wait()
	if sink.Len() == 0 {
		t.Fatal("join query produced nothing")
	}
	for _, e := range sink.Elements() {
		if e.Key >= 10 {
			t.Fatalf("WHERE not applied after join: key %d", e.Key)
		}
	}
}

func TestPlanUnknownSource(t *testing.T) {
	eng := hmts.New()
	q, err := Parse("SELECT * FROM ghost")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(eng, map[string]*hmts.Stream{}, q); err == nil ||
		!strings.Contains(err.Error(), "unknown source") {
		t.Fatalf("want unknown-source error, got %v", err)
	}
}

func TestDurationValidation(t *testing.T) {
	if _, err := Parse("SELECT avg(val) FROM s WINDOW 0s"); err == nil {
		t.Fatal("zero window should be rejected")
	}
	if _, err := Parse("SELECT avg(val) FROM s WINDOW bogus"); err == nil {
		t.Fatal("malformed duration should be rejected")
	}
	_ = time.Second
}

func TestHaving(t *testing.T) {
	// Parsing.
	q, err := Parse("SELECT count(*) FROM s GROUP BY KEY WINDOW 1h HAVING val >= 3")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.String(); got != "select count(*) from s group by key window 1h0m0s having (val >= 3)" {
		t.Fatalf("canonical form %q", got)
	}
	if _, err := Parse("SELECT * FROM s HAVING val > 1"); err == nil {
		t.Fatal("HAVING without aggregate should be rejected")
	}
	if _, err := Parse("SELECT count(*) FROM s WINDOW 1s HAVING val + 1"); err == nil {
		t.Fatal("non-boolean HAVING should be rejected")
	}

	// Execution: counts per key reach 3 only after the third occurrence.
	eng := hmts.New()
	src := eng.Source("s", hmts.GenerateStamped(12, 1000, func(i int) hmts.Element {
		return hmts.Element{Key: int64(i % 3)} // each key appears 4 times
	}))
	out, err := Plan(eng, map[string]*hmts.Stream{"s": src}, q)
	if err != nil {
		t.Fatal(err)
	}
	sink := out.Collect("out")
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeGTS})
	eng.Wait()
	sink.Wait()
	// Emissions with count >= 3: occurrences 3 and 4 of each key -> 6.
	if sink.Len() != 6 {
		t.Fatalf("having passed %d, want 6: %v", sink.Len(), sink.Elements())
	}
	for _, e := range sink.Elements() {
		if e.Val < 3 {
			t.Fatalf("having leaked %v", e)
		}
	}
}
