package ql

import (
	"fmt"
	"math"
	"time"

	"github.com/dsms/hmts/internal/stream"
)

// Field names an element attribute.
type Field int

// Element attributes addressable in queries.
const (
	FieldKey Field = iota
	FieldVal
	FieldTS
	FieldStar // '*' in select lists
)

// String names the field.
func (f Field) String() string {
	switch f {
	case FieldKey:
		return "key"
	case FieldVal:
		return "val"
	case FieldTS:
		return "ts"
	case FieldStar:
		return "*"
	}
	return fmt.Sprintf("Field(%d)", int(f))
}

// Agg names an aggregate function, or AggNone for plain selection.
type Agg int

// Aggregate functions.
const (
	AggNone Agg = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String names the aggregate.
func (a Agg) String() string {
	names := [...]string{"none", "count", "sum", "avg", "min", "max"}
	if int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("Agg(%d)", int(a))
}

// Query is the parsed form of a SELECT statement.
type Query struct {
	Agg        Agg
	AggField   Field // field under the aggregate, or projected field
	From       string
	Join       string        // second source, empty if none
	JoinWin    time.Duration // join window (required with Join)
	Where      Expr          // nil if absent
	GroupBy    bool          // GROUP BY KEY
	Window     time.Duration // aggregate time window
	WindowRows int           // aggregate ROWS window (exclusive with Window)
	Having     Expr          // filter over aggregate output (val = aggregate, key = group)
	// Shards key-partitions the query's stateful operator across this many
	// replicas (SHARD n). Applies to the grouped aggregate when present,
	// otherwise to the join; 0 means unsharded.
	Shards int
}

// String renders the query canonically.
func (q *Query) String() string {
	s := "select "
	switch q.Agg {
	case AggNone:
		s += q.AggField.String()
	default:
		s += q.Agg.String() + "(" + q.AggField.String() + ")"
	}
	s += " from " + q.From
	if q.Join != "" {
		s += fmt.Sprintf(" join %s window %v", q.Join, q.JoinWin)
	}
	if q.Where != nil {
		s += " where " + q.Where.String()
	}
	if q.GroupBy {
		s += " group by key"
	}
	if q.Window > 0 {
		s += fmt.Sprintf(" window %v", q.Window)
	}
	if q.WindowRows > 0 {
		s += fmt.Sprintf(" window %d rows", q.WindowRows)
	}
	if q.Having != nil {
		s += " having " + q.Having.String()
	}
	if q.Shards > 0 {
		s += fmt.Sprintf(" shard %d", q.Shards)
	}
	return s
}

// Expr is a typed expression over an element. IsBool reports whether it is
// a predicate or a number. An Expr is not evaluated directly: Compile turns
// a predicate into one closure, once, when a query is planned.
type Expr interface {
	fmt.Stringer
	IsBool() bool
}

// numLit is a numeric literal.
type numLit float64

func (n numLit) IsBool() bool   { return false }
func (n numLit) String() string { return fmt.Sprintf("%g", float64(n)) }

// fieldRef reads an element attribute.
type fieldRef Field

func (f fieldRef) IsBool() bool   { return false }
func (f fieldRef) String() string { return Field(f).String() }

// binary is an arithmetic or comparison operator.
type binary struct {
	op   string
	l, r Expr
}

func (b *binary) IsBool() bool {
	switch b.op {
	case "=", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (b *binary) String() string { return fmt.Sprintf("(%s %s %s)", b.l, b.op, b.r) }

// logical is AND/OR over predicates.
type logical struct {
	op   string // "and" | "or"
	l, r Expr
}

func (l *logical) IsBool() bool   { return true }
func (l *logical) String() string { return fmt.Sprintf("(%s %s %s)", l.l, l.op, l.r) }

// not negates a predicate.
type not struct{ x Expr }

func (n *not) IsBool() bool   { return true }
func (n *not) String() string { return fmt.Sprintf("(not %s)", n.x) }

// neg negates a number.
type neg struct{ x Expr }

func (n *neg) IsBool() bool   { return false }
func (n *neg) String() string { return fmt.Sprintf("(-%s)", n.x) }

// Compile returns the closure that evaluates predicate x, which the parser
// produced. Operators are resolved here, not per element, and a comparison
// of a field with a literal is a single closure that calls nothing.
// Arithmetic and comparisons follow IEEE 754: NaN compares false except
// with !=, % is math.Mod and x/0 is ±Inf or NaN.
func Compile(x Expr) func(stream.Element) bool {
	switch x := x.(type) {
	case *not:
		p := Compile(x.x)
		return func(e stream.Element) bool { return !p(e) }
	case *logical:
		l, r := Compile(x.l), Compile(x.r)
		if x.op == "and" {
			return func(e stream.Element) bool { return l(e) && r(e) }
		}
		return func(e stream.Element) bool { return l(e) || r(e) }
	case *binary:
		// A literal on the left is moved to the right by mirroring the
		// operator, which IEEE comparison allows: c < x is exactly x > c.
		if f, ok := x.l.(fieldRef); ok {
			if c, ok := literal(x.r); ok {
				return fieldCmp(Field(f), x.op, c)
			}
		}
		if f, ok := x.r.(fieldRef); ok {
			if c, ok := literal(x.l); ok {
				return fieldCmp(Field(f), mirror[x.op], c)
			}
		}
		l, r := compileNum(x.l), compileNum(x.r)
		switch x.op {
		case "=":
			return func(e stream.Element) bool { return l(e) == r(e) }
		case "!=":
			return func(e stream.Element) bool { return l(e) != r(e) }
		case "<":
			return func(e stream.Element) bool { return l(e) < r(e) }
		case "<=":
			return func(e stream.Element) bool { return l(e) <= r(e) }
		case ">":
			return func(e stream.Element) bool { return l(e) > r(e) }
		case ">=":
			return func(e stream.Element) bool { return l(e) >= r(e) }
		}
	}
	panic(fmt.Sprintf("ql: %s is not a predicate", x))
}

// compileNum returns the closure that evaluates numeric expression x.
func compileNum(x Expr) func(stream.Element) float64 {
	switch x := x.(type) {
	case numLit:
		c := float64(x)
		return func(stream.Element) float64 { return c }
	case fieldRef:
		switch Field(x) {
		case FieldKey:
			return func(e stream.Element) float64 { return float64(e.Key) }
		case FieldVal:
			return func(e stream.Element) float64 { return e.Val }
		case FieldTS:
			return func(e stream.Element) float64 { return float64(e.TS) }
		}
	case *neg:
		n := compileNum(x.x)
		return func(e stream.Element) float64 { return -n(e) }
	case *binary:
		l, r := compileNum(x.l), compileNum(x.r)
		switch x.op {
		case "+":
			return func(e stream.Element) float64 { return l(e) + r(e) }
		case "-":
			return func(e stream.Element) float64 { return l(e) - r(e) }
		case "*":
			return func(e stream.Element) float64 { return l(e) * r(e) }
		case "/":
			return func(e stream.Element) float64 { return l(e) / r(e) }
		case "%":
			return func(e stream.Element) float64 { return math.Mod(l(e), r(e)) }
		}
	}
	panic(fmt.Sprintf("ql: %s is not a number", x))
}

// literal reports the value of a numeric literal, negated or not.
func literal(x Expr) (float64, bool) {
	switch x := x.(type) {
	case numLit:
		return float64(x), true
	case *neg:
		c, ok := literal(x.x)
		return -c, ok
	}
	return 0, false
}

// mirror maps a comparison to the one that holds with its operands swapped.
var mirror = map[string]string{"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// fieldCmp compiles "field op c" into one closure that reads the field and
// compares it with the constant.
func fieldCmp(f Field, op string, c float64) func(stream.Element) bool {
	switch f {
	case FieldKey:
		switch op {
		case "=":
			return func(e stream.Element) bool { return float64(e.Key) == c }
		case "!=":
			return func(e stream.Element) bool { return float64(e.Key) != c }
		case "<":
			return func(e stream.Element) bool { return float64(e.Key) < c }
		case "<=":
			return func(e stream.Element) bool { return float64(e.Key) <= c }
		case ">":
			return func(e stream.Element) bool { return float64(e.Key) > c }
		case ">=":
			return func(e stream.Element) bool { return float64(e.Key) >= c }
		}
	case FieldVal:
		switch op {
		case "=":
			return func(e stream.Element) bool { return e.Val == c }
		case "!=":
			return func(e stream.Element) bool { return e.Val != c }
		case "<":
			return func(e stream.Element) bool { return e.Val < c }
		case "<=":
			return func(e stream.Element) bool { return e.Val <= c }
		case ">":
			return func(e stream.Element) bool { return e.Val > c }
		case ">=":
			return func(e stream.Element) bool { return e.Val >= c }
		}
	case FieldTS:
		switch op {
		case "=":
			return func(e stream.Element) bool { return float64(e.TS) == c }
		case "!=":
			return func(e stream.Element) bool { return float64(e.TS) != c }
		case "<":
			return func(e stream.Element) bool { return float64(e.TS) < c }
		case "<=":
			return func(e stream.Element) bool { return float64(e.TS) <= c }
		case ">":
			return func(e stream.Element) bool { return float64(e.TS) > c }
		case ">=":
			return func(e stream.Element) bool { return float64(e.TS) >= c }
		}
	}
	panic("ql: bad comparison " + f.String() + " " + op)
}
