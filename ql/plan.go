package ql

import (
	"fmt"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stream"
)

// Plan compiles a parsed query onto the engine's shared graph. The sources
// map names registered source streams (so multiple queries over the same
// source share it, the Figure 1 pattern). The returned stream is the
// query's result; the caller attaches a sink.
func Plan(eng *hmts.Engine, sources map[string]*hmts.Stream, q *Query) (*hmts.Stream, error) {
	s, ok := sources[q.From]
	if !ok {
		return nil, fmt.Errorf("ql: unknown source %q", q.From)
	}
	if q.Join != "" {
		other, ok := sources[q.Join]
		if !ok {
			return nil, fmt.Errorf("ql: unknown source %q", q.Join)
		}
		s = s.Join(fmt.Sprintf("join(%s,%s)", q.From, q.Join), other, q.JoinWin, nil)
		// SHARD partitions the join unless a grouped aggregate follows — the
		// aggregate is then the stateful operator the clause addresses.
		if q.Shards > 0 && !(q.GroupBy && q.Agg != AggNone) {
			s = s.Shard(q.Shards)
		}
	}
	if q.Where != nil {
		s = s.Where("where "+q.Where.String(), Compile(q.Where))
	}
	switch q.Agg {
	case AggNone:
		switch q.AggField {
		case FieldStar:
			// identity
		case FieldKey:
			s = s.Map("select key", func(e stream.Element) stream.Element {
				return stream.Element{TS: e.TS, Key: e.Key}
			})
		case FieldVal:
			s = s.Map("select val", func(e stream.Element) stream.Element {
				return stream.Element{TS: e.TS, Val: e.Val}
			})
		case FieldTS:
			s = s.Map("select ts", func(e stream.Element) stream.Element {
				return stream.Element{TS: e.TS, Val: float64(e.TS)}
			})
		}
	default:
		kind, err := aggKind(q.Agg)
		if err != nil {
			return nil, err
		}
		// Aggregates other than COUNT operate on Val; map the chosen
		// field into Val first if needed.
		if q.Agg != AggCount && q.AggField == FieldKey {
			s = s.Map("val=key", func(e stream.Element) stream.Element {
				e.Val = float64(e.Key)
				return e
			})
		}
		var group func(stream.Element) int64
		if q.GroupBy {
			group = func(e stream.Element) int64 { return e.Key }
		}
		aggName := fmt.Sprintf("%v(%v)", q.Agg, q.AggField)
		if q.WindowRows > 0 {
			s = s.AggregateRows(aggName, kind, q.WindowRows, group)
		} else {
			s = s.Aggregate(aggName, kind, q.Window, group)
		}
		if q.Shards > 0 && q.GroupBy {
			s = s.Shard(q.Shards)
		}
		if q.Having != nil {
			s = s.Where("having "+q.Having.String(), Compile(q.Having))
		}
	}
	return s, nil
}

func aggKind(a Agg) (op.AggKind, error) {
	switch a {
	case AggCount:
		return op.AggCount, nil
	case AggSum:
		return op.AggSum, nil
	case AggAvg:
		return op.AggAvg, nil
	case AggMin:
		return op.AggMin, nil
	case AggMax:
		return op.AggMax, nil
	}
	return 0, fmt.Errorf("ql: unsupported aggregate %d", a)
}
