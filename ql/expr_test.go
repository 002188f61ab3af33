package ql

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/dsms/hmts/internal/stream"
)

// refNum and refBool are a plain tree walk over the expression: the
// reference the compiled closures are checked against.
func refNum(x Expr, e stream.Element) float64 {
	switch x := x.(type) {
	case numLit:
		return float64(x)
	case fieldRef:
		switch Field(x) {
		case FieldKey:
			return float64(e.Key)
		case FieldVal:
			return e.Val
		case FieldTS:
			return float64(e.TS)
		}
	case *neg:
		return -refNum(x.x, e)
	case *binary:
		l, r := refNum(x.l, e), refNum(x.r, e)
		switch x.op {
		case "+":
			return l + r
		case "-":
			return l - r
		case "*":
			return l * r
		case "/":
			return l / r
		case "%":
			return math.Mod(l, r)
		}
	}
	panic("refNum: " + x.String())
}

func refBool(x Expr, e stream.Element) bool {
	switch x := x.(type) {
	case *not:
		return !refBool(x.x, e)
	case *logical:
		if x.op == "and" {
			return refBool(x.l, e) && refBool(x.r, e)
		}
		return refBool(x.l, e) || refBool(x.r, e)
	case *binary:
		l, r := refNum(x.l, e), refNum(x.r, e)
		switch x.op {
		case "=":
			return l == r
		case "!=":
			return l != r
		case "<":
			return l < r
		case "<=":
			return l <= r
		case ">":
			return l > r
		case ">=":
			return l >= r
		}
	}
	panic("refBool: " + x.String())
}

// probes are elements at the edges of IEEE arithmetic and int64 → float64
// conversion, plus the two values a case is built around.
func probes(a, b float64) []stream.Element {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 3, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, a, b}
	keys := []int64{0, 1, -1, 3, math.MinInt64, math.MaxInt64, int64(a)}
	tss := []int64{0, 5, math.MinInt64, math.MaxInt64}
	var es []stream.Element
	for _, v := range vals {
		for _, k := range keys {
			for _, ts := range tss {
				es = append(es, stream.Element{TS: ts, Key: k, Val: v})
			}
		}
	}
	return es
}

// sameFloat reports whether two results are the same value: equal bits,
// or both NaN.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// exprGen builds an expression tree from the bits of a fuzzer integer and
// two fuzzer literals.
type exprGen struct {
	bits uint64
	lits [2]float64
}

func (g *exprGen) take(n uint) int {
	v := int(g.bits & (1<<n - 1))
	g.bits >>= n
	return v
}

func (g *exprGen) num(depth int) Expr {
	k := g.take(3)
	if depth == 0 || k < 2 {
		switch g.take(2) {
		case 0:
			return fieldRef(FieldKey)
		case 1:
			return fieldRef(FieldVal)
		case 2:
			return fieldRef(FieldTS)
		}
		return numLit(g.lits[g.take(1)])
	}
	if k == 2 {
		return &neg{x: g.num(depth - 1)}
	}
	return &binary{op: [...]string{"+", "-", "*", "/", "%"}[k-3], l: g.num(depth - 1), r: g.num(depth - 1)}
}

func (g *exprGen) pred(depth int) Expr {
	k := g.take(2)
	switch {
	case depth == 0 || k < 2:
		op := [...]string{"=", "!=", "<", "<=", ">", ">="}[g.take(3)%6]
		return &binary{op: op, l: g.num(depth), r: g.num(depth)}
	case k == 2:
		return &logical{op: [...]string{"and", "or"}[g.take(1)], l: g.pred(depth - 1), r: g.pred(depth - 1)}
	}
	return &not{x: g.pred(depth - 1)}
}

// FuzzExpr checks every compiled predicate and number against the tree
// walk, on elements that include NaN, ±Inf, -0 and the int64 extremes.
func FuzzExpr(f *testing.F) {
	f.Add(uint64(0), 0.0, 1.0)
	f.Add(uint64(0b0111_1_00), 0.0, 0.0) // key > literal
	f.Add(uint64(0xdeadbeefcafef00d), 3.0, -0.5)
	f.Add(uint64(0x123456789abcdef0), math.NaN(), math.Inf(1))
	f.Add(uint64(0xffffffffffffffff), -1e308, 1e-300)
	f.Add(uint64(0x5555555555555555), 9.223372036854775807e18, -0.0)
	// A spread of shapes, so that the seed run alone reaches every
	// operator at every depth.
	lits := []float64{0, 1, 3, 0.5, -2, math.NaN(), math.Inf(-1), 1e300}
	for i, x := 0, uint64(1); i < 256; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		f.Add(x^x>>29, lits[i%len(lits)], lits[(i/len(lits))%len(lits)])
	}
	f.Fuzz(func(t *testing.T, shape uint64, a, b float64) {
		g := &exprGen{bits: shape, lits: [2]float64{a, b}}
		p := g.pred(3)
		n := g.num(2)
		pf, nf := Compile(p), compileNum(n)
		for _, e := range probes(a, b) {
			if got, want := pf(e), refBool(p, e); got != want {
				t.Fatalf("%s on %+v: compiled %v, reference %v", p, e, got, want)
			}
			if got, want := nf(e), refNum(n, e); !sameFloat(got, want) {
				t.Fatalf("%s on %+v: compiled %v, reference %v", n, e, got, want)
			}
		}
	})
}

// TestCompileFieldLiteral covers every specialised comparison: all six
// operators, all three fields, the literal on either side and negated or
// not, through the parser; and literals no query can spell (NaN, ±Inf,
// -0) on trees built directly.
func TestCompileFieldLiteral(t *testing.T) {
	check := func(x Expr, c float64) {
		t.Helper()
		pred := Compile(x)
		for _, e := range probes(c, -c) {
			if got, want := pred(e), refBool(x, e); got != want {
				t.Fatalf("%s on %+v: compiled %v, reference %v", x, e, got, want)
			}
		}
	}
	for _, field := range []string{"key", "val", "ts"} {
		for _, op := range []string{"=", "!=", "<>", "<", "<=", ">", ">="} {
			for _, lit := range []string{"0", "3", "0.5", "-1", "- -3", "1e300"} {
				for _, where := range []string{field + " " + op + " " + lit, lit + " " + op + " " + field} {
					q, err := Parse("SELECT * FROM s WHERE " + where)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					c, _ := strconv.ParseFloat(strings.ReplaceAll(lit, "- -", ""), 64)
					check(q.Where, c)
				}
			}
		}
	}
	for _, f := range []Field{FieldKey, FieldVal, FieldTS} {
		for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
			for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), -9.223372036854775808e18} {
				check(&binary{op: op, l: fieldRef(f), r: numLit(c)}, c)
				check(&binary{op: op, l: numLit(c), r: fieldRef(f)}, c)
			}
		}
	}
}

var benchHits int

func BenchmarkWhere(b *testing.B) {
	es := make([]stream.Element, 1024)
	for i := range es {
		es[i] = stream.Element{TS: int64(i), Key: int64(i % 7), Val: float64(i%5) - 2}
	}
	for _, c := range []struct{ name, where string }{
		{"val-gt-lit", "val > 0"},
		{"compound", "key % 3 = 1 AND val * 2 >= 1 OR ts < 5"},
	} {
		b.Run(c.name, func(b *testing.B) {
			q, err := Parse("SELECT * FROM s WHERE " + c.where)
			if err != nil {
				b.Fatal(err)
			}
			pred := Compile(q.Where)
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pred(es[i&(len(es)-1)]) {
					hits++
				}
			}
			benchHits = hits
		})
	}
}
