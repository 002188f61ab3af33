package main

import (
	"fmt"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/op"
)

// window is the sliding window of every aggregate the benchmark runs.
const window = int64(time.Second)

// keys is the key cardinality of every workload's input.
const keys = 1000

// cheapChain: filter → map → grouped window count, in-process. Under HMTS
// the chain fuses into the source thread — no executor, no queue — so the
// ingress ring, the operators and the sink do all the work, and the
// difference from wire-agg is the wire.
func runCheapChain(r *run) {
	r.runInProc(&scenario{
		in:       input{keys: keys, step: 50_000},
		rateHint: 100_000,
		capN:     300_000,
		loRate:   20_000,
		hiRate:   400_000,
		setups:   512,
		graph: func(r *run, eng *hmts.Engine, src *hmts.Stream, in input) ([]*sink, []*sink, error) {
			s := newSink(in, r.tr)
			src.Where("pos", positive).Map("scale", scale).Aggregate("cnt", hmts.Count, time.Duration(window), byKey).Into("out", s)
			return []*sink{s}, []*sink{s}, nil
		},
		expect: func(in input, n int) []digest { return []digest{refWindowCount(in, n, window)} },
	})
}

// Stall-mix parameters: the cheap path keeps one key in cheapMod; each of
// the stallBranches branches burns stallCostNS per element.
const (
	cheapMod      = 8
	stallBranches = 2
	stallCostNS   = 2000
)

func cheap(e hmts.Element) bool { return e.Key%cheapMod == 0 }

func all(hmts.Element) bool { return true }

// stallMix is the paper's case: one source feeds a cheap selective path to
// the latency sink and branches with a fixed per-element cost. HMTS must
// decouple the expensive branches so the cheap path does not stall behind
// them, and run them on more than one core.
func runStallMix(r *run) {
	r.runInProc(&scenario{
		in:       input{keys: keys, step: 50_000},
		rateHint: 200_000,
		capN:     60_000,
		loRate:   20_000,
		hiRate:   100_000,
		setups:   512,
		graph: func(r *run, eng *hmts.Engine, src *hmts.Stream, in input) ([]*sink, []*sink, error) {
			c := newSink(in, r.tr)
			src.Where("cheap", cheap).Into("cheap", c)
			sinks := []*sink{c}
			g := eng.Graph()
			for b := 0; b < stallBranches; b++ {
				name := fmt.Sprintf("costsim%d", b)
				n := g.AddOp(name, op.NewCostSim(name, stallCostNS, nil), stallCostNS, 1)
				g.Connect(src.Node(), n, 0)
				s := newSink(in, r.tr)
				g.Connect(n, g.AddSink(name+"-out", s), 0)
				sinks = append(sinks, s)
			}
			return sinks, []*sink{c}, nil
		},
		expect: func(in input, n int) []digest {
			ds := []digest{refFiltered(in, n, cheap)}
			every := refFiltered(in, n, all)
			for b := 0; b < stallBranches; b++ {
				ds = append(ds, every)
			}
			return ds
		},
	})
}

// Live-mutate parameters.
const (
	standing      = 64                     // standing filter queries on the shared prefix
	aggShards     = 2                      // replicas of the sharded aggregate at set-up
	spliceEvery   = 50 * time.Millisecond  // one AddQuery or DropQuery per period
	reshardEvery  = 250 * time.Millisecond // one Reshard per period
	liveMutateHz  = 50_000                 // latency-phase high rate
	liveMutateCap = 100_000                // elements per capacity round
)

// standingQuery builds standing query i: the shared positive-value prefix,
// then the query's own key filter.
func standingQuery(src *hmts.Stream, i int) *hmts.Stream {
	return src.Where("pos", positive).Where(fmt.Sprintf("k%d", i), func(e hmts.Element) bool { return e.Key%standing == int64(i) })
}

// liveMutate registers 64 standing queries with AddQuery on one shared
// prefix plus a sharded grouped aggregate — many cheap partitions where
// stall-mix has few heavy ones — and, in the latency phases, splices
// queries in and out and reshards the aggregate at a fixed period.
func runLiveMutate(r *run) {
	r.runInProc(&scenario{
		in:       input{keys: keys, step: 200_000},
		rateHint: 200_000,
		capN:     liveMutateCap,
		loRate:   20_000,
		hiRate:   liveMutateHz,
		setups:   128,
		graph: func(r *run, eng *hmts.Engine, src *hmts.Stream, in input) ([]*sink, []*sink, error) {
			var sinks []*sink
			for i := 0; i < standing; i++ {
				s := newSink(in, r.tr)
				if err := eng.AddQuery(fmt.Sprintf("q%d", i), s, func() (*hmts.Stream, error) {
					return standingQuery(src, i), nil
				}); err != nil {
					return nil, nil, err
				}
				sinks = append(sinks, s)
			}
			agg := newSink(in, r.tr)
			if err := eng.AddQuery("agg", agg, func() (*hmts.Stream, error) {
				return src.Where("pos", positive).Map("scale", scale).Aggregate("cnt", hmts.Count, time.Duration(window), byKey).Shard(aggShards), nil
			}); err != nil {
				return nil, nil, err
			}
			return append(sinks, agg), sinks, nil
		},
		expect: func(in input, n int) []digest {
			var ds []digest
			for i := 0; i < standing; i++ {
				ds = append(ds, refFiltered(in, n, func(e hmts.Element) bool { return positive(e) && e.Key%standing == int64(i) }))
			}
			return append(ds, refWindowCount(in, n, window))
		},
		mutate: churn,
	})
}

// churn alternates AddQuery and DropQuery of a short-lived query every
// spliceEvery and resizes the aggregate between aggShards and aggShards+1
// every reshardEvery, until stop closes. It leaves no churn query behind.
func churn(r *run, d *deployment, stop <-chan struct{}, m *mutations) {
	tick := time.NewTicker(spliceEvery)
	defer tick.Stop()
	perReshard := int(reshardEvery / spliceEvery)
	live := ""
	shards := aggShards
	for k := 1; ; k++ {
		select {
		case <-stop:
			if live != "" && d.eng.Err() == nil {
				m.timed(r, spanDropQuery, &m.drop, func() error { return d.eng.DropQuery(live) })
			}
			return
		case <-tick.C:
		}
		if d.eng.Err() != nil {
			// The fail-stop is counted when the phase is checked; mutating
			// a stopped deployment further only piles errors onto it.
			return
		}
		if k%perReshard == 0 {
			shards = 2*aggShards + 1 - shards
			m.timed(r, spanReshard, &m.reshard, func() error { return d.eng.Reshard("cnt", shards) })
			continue
		}
		if live != "" {
			m.timed(r, spanDropQuery, &m.drop, func() error { return d.eng.DropQuery(live) })
			live = ""
			continue
		}
		name := fmt.Sprintf("churn%d", k)
		s := newSink(d.sinks[0].in, nil)
		err := m.timed(r, spanAddQuery, &m.add, func() error {
			return d.eng.AddQuery(name, s, func() (*hmts.Stream, error) {
				return d.src.Where("pos", positive).Where(name, func(e hmts.Element) bool { return e.Key%97 == int64(k%97) }), nil
			})
		})
		if err == nil {
			live = name
		}
	}
}
