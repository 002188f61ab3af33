package hmts_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/simtime"
)

// mapCostNS is what each Map of costlyChain burns per element.
const mapCostNS = 500

// costlyChain declares src → m0 → … → m4 → sink, five identical Maps of
// about mapCostNS each (and hinted so), fed n elements stamped at rateHz
// in virtual time, in batches of chainBatch.
func costlyChain(n int, rateHz float64) (*hmts.Engine, *hmts.Counter) {
	eng := hmts.New()
	s := eng.Source("src", hmts.GenerateStamped(n, rateHz, hmts.SeqKeys()).Batched(chainBatch))
	for i := 0; i < 5; i++ {
		s = s.Map(fmt.Sprintf("m%d", i), func(e hmts.Element) hmts.Element {
			simtime.Busy(mapCostNS)
			e.Val++
			return e
		}).Hint(mapCostNS, 1)
	}
	return eng, s.CountSink("out")
}

// chainBatch is the batch size through costlyChain. The estimates are
// smoothed samples of wall-clock time, and a descheduling inside a
// metered batch inflates its sample by the pause over the batch length:
// long batches keep a pause on a shared host from swamping c(v).
const chainBatch = 512

// runChain runs costlyChain under mode to the end and returns it with its
// measured operator statistics, sorted by name: m0..m4.
func runChain(t *testing.T, mode hmts.Mode, rateHz float64) (*hmts.Engine, []hmts.OpMetrics) {
	t.Helper()
	const n = 40_000
	eng, out := costlyChain(n, rateHz)
	eng.MustRun(hmts.RunConfig{Mode: mode, Batch: chainBatch})
	eng.Wait()
	out.Wait()
	if out.Count() != n {
		t.Fatalf("%v: %d results, want %d", mode, out.Count(), n)
	}
	return eng, eng.Metrics().Ops
}

// minCosts runs costlyChain under each mode in turn, rounds times, and
// returns each mode's per-Map lowest c(v).
func minCosts(t *testing.T, rounds int, modes ...hmts.Mode) [][]float64 {
	t.Helper()
	runs := make([]func() []float64, len(modes))
	for m, mode := range modes {
		runs[m] = func() []float64 {
			_, ops := runChain(t, mode, 1e6)
			cs := make([]float64, len(ops))
			for i, o := range ops {
				cs[i] = o.CostNS
			}
			return cs
		}
	}
	return minOverRounds(rounds, runs...)
}

// minOverRounds calls each run in turn, rounds times, and returns, per
// run, the lowest of each reading it returned. A pause on a shared host
// can only inflate a measurement, so the minimum is the robust reading,
// and alternating the runs exposes them to the same background load.
func minOverRounds(rounds int, runs ...func() []float64) [][]float64 {
	mins := make([][]float64, len(runs))
	for r := 0; r < rounds; r++ {
		for k, run := range runs {
			for i, c := range run() {
				if r == 0 {
					mins[k] = append(mins[k], c)
				}
				mins[k][i] = math.Min(mins[k][i], c)
			}
		}
	}
	return mins
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// attempts bounds the measurements a timing check takes before it fails.
// Background load on a shared host can skew one measurement by more than
// the checks allow; the defects they guard against skew every one.
const attempts = 3

// TestFusedCostsAreExclusive: c(v) is an operator's own time. Five
// identical Maps fused into one DI chain must each read about what they
// read under GTS, where a queue on every edge keeps the costs apart;
// charging a fused operator for its successors made the head read the
// whole chain.
func TestFusedCostsAreExclusive(t *testing.T) {
	var err error
	for a := 0; a < attempts; a++ {
		cs := minCosts(t, 3, hmts.ModeDI, hmts.ModeGTS)
		if err = fusedCostsMatchGTS(cs[0], cs[1]); err == nil {
			return
		}
		t.Log(err)
	}
	t.Fatal(err)
}

func fusedCostsMatchGTS(di, gts []float64) error {
	ref := mean(gts)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, c := range di {
		if math.Abs(c-ref) > 0.25*ref {
			return fmt.Errorf("DI c(m%d) = %.0f ns, GTS mean %.0f ns: outside ±25%% (DI %.0f, GTS %.0f)", i, c, ref, di, gts)
		}
		lo, hi = math.Min(lo, c), math.Max(hi, c)
	}
	if hi > 1.25*lo {
		return fmt.Errorf("DI costs %.0f spread beyond ±25%% of each other", di)
	}
	return nil
}

// TestRebalanceKeepsCarriableChain: Rebalance re-plans from measured
// statistics, and a chain that one core carries easily must stay one
// virtual operator. Algorithm 1 keeps the source and the five Maps
// together while Σ c(v) ≤ d(P), and d(P) = d/6 for a chain fed every d ns.
// With c the per-Map cost, the exclusive costs sum to 5c and the
// inclusive ones (the head read the whole chain, the next Map four, and
// so on) to 15c. The rate puts d/6 at √3·5c, as far from both sums in
// ratio; the chain then needs under a tenth of a core.
func TestRebalanceKeepsCarriableChain(t *testing.T) {
	c := mean(minCosts(t, 2, hmts.ModeGTS)[0])
	rateHz := 1e9 / (6 * math.Sqrt(3) * 5 * c)
	var err error
	for a := 0; a < attempts; a++ {
		if err = rebalanceKeepsOneVO(t, rateHz); err == nil {
			return
		}
		t.Log(err)
	}
	t.Fatal(err)
}

func rebalanceKeepsOneVO(t *testing.T, rateHz float64) error {
	eng, _ := runChain(t, hmts.ModeHMTS, rateHz)
	if vos := len(eng.Metrics().VOs); vos != 1 {
		return fmt.Errorf("the hinted plan has %d VOs, want 1", vos)
	}
	if err := eng.Rebalance(); err != nil {
		return err
	}
	m := eng.Metrics()
	if len(m.VOs) != 1 {
		costs := make([]float64, len(m.Ops))
		for i, o := range m.Ops {
			costs[i] = o.CostNS
		}
		return fmt.Errorf("Rebalance at %.0f elements/s re-cut the chain into %d VOs (measured costs %.0f ns)", rateHz, len(m.VOs), costs)
	}
	return nil
}

// TestMetricsDuringFusedRun polls Engine.Metrics while a fused chain and a
// fan-out run: the estimates are published by the one goroutine driving
// each operator and read lock-free, which go test -race checks.
func TestMetricsDuringFusedRun(t *testing.T) {
	for _, mode := range []hmts.Mode{hmts.ModePureDI, hmts.ModeHMTS} {
		eng := hmts.New()
		src := eng.Source("src", hmts.GenerateStamped(50_000, 1e6, hmts.SeqKeys()).Batched(16))
		head := src.Where("even", func(e hmts.Element) bool { return e.Key%2 == 0 })
		chain := head.Map("inc", func(e hmts.Element) hmts.Element { e.Val++; return e }).
			Map("dbl", func(e hmts.Element) hmts.Element { e.Val *= 2; return e })
		a := chain.CountSink("a")
		b := head.Where("third", func(e hmts.Element) bool { return e.Key%3 == 0 }).CountSink("b")
		eng.MustRun(hmts.RunConfig{Mode: mode})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, o := range eng.Metrics().Ops {
					if o.CostNS < 0 || o.InterarrivalNS < 0 || math.IsNaN(o.CostNS) {
						t.Errorf("%v: inconsistent snapshot of %s: %+v", mode, o.Name, o)
					}
				}
			}
		}()
		eng.Wait()
		a.Wait()
		b.Wait()
		close(stop)
		wg.Wait()
		if a.Count() != 25_000 || b.Count() != 8_334 {
			t.Fatalf("%v: results %d/%d, want 25000/8334", mode, a.Count(), b.Count())
		}
		for _, o := range eng.Metrics().Ops {
			if o.CostNS <= 0 {
				t.Fatalf("%v: %s was never metered", mode, o.Name)
			}
		}
	}
}
