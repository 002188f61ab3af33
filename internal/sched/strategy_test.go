package sched

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/testutil"
)

// devnull is the minimal downstream for test queues.
type devnull struct{}

func (devnull) ProcessBatch(int, []stream.Element) {}
func (devnull) Done(int)                           {}

// unitWith returns a unit whose queue holds elements with the given
// timestamps.
func unitWith(name string, tss ...int64) *Unit {
	q := queue.New(name, 0)
	q.Subscribe(devnull{}, 0)
	for _, ts := range tss {
		testutil.Push(q, 0, stream.Element{TS: ts})
	}
	return &Unit{Q: q}
}

// strategyNames lists every strategy by its NewStrategy key.
var strategyNames = []string{"fifo", "chain"}

// initStrat builds the index over units and returns the strategy.
func initStrat(s Strategy, units []*Unit) Strategy {
	s.Init(units)
	return s
}

func TestFIFOPicksOldest(t *testing.T) {
	units := []*Unit{unitWith("a", 30), unitWith("b", 10), unitWith("c", 20)}
	s := initStrat(&FIFO{}, units)
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want 1", got)
	}
}

func TestFIFOSkipsEmptyAndClosed(t *testing.T) {
	empty := unitWith("e")
	closed := unitWith("c", 5)
	closed.closed = true
	units := []*Unit{empty, closed, unitWith("x", 50)}
	s := initStrat(&FIFO{}, units)
	if got := s.Pick(); got != 2 {
		t.Fatalf("picked %d, want 2", got)
	}
	s = initStrat(&FIFO{}, []*Unit{empty, closed})
	if got := s.Pick(); got != -1 {
		t.Fatalf("picked %d from unready units, want -1", got)
	}
}

func TestFIFOPrefersPendingDone(t *testing.T) {
	pending := unitWith("p")
	pending.Q.Done(0) // empty but must propagate Done
	units := []*Unit{unitWith("x", 1), pending}
	s := initStrat(&FIFO{}, units)
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want the pending-Done unit", got)
	}
}

func TestFIFOTracksUpdates(t *testing.T) {
	a, b := unitWith("a", 10), unitWith("b", 20)
	units := []*Unit{a, b}
	s := initStrat(&FIFO{}, units)
	if got := s.Pick(); got != 0 {
		t.Fatalf("picked %d, want 0", got)
	}
	// Drain a's front; its next element is younger than b's front.
	testutil.Push(a.Q, 0, stream.Element{TS: 30})
	var scratch [1]stream.Element
	a.Q.DrainBatch(scratch[:], 1)
	s.Update(0)
	if got := s.Pick(); got != 1 {
		t.Fatalf("after drain picked %d, want 1", got)
	}
	// b drains empty: only a remains.
	b.Q.DrainBatch(scratch[:], 1)
	s.Update(1)
	if got := s.Pick(); got != 0 {
		t.Fatalf("after emptying b picked %d, want 0", got)
	}
}

func TestChainPicksSteepest(t *testing.T) {
	a := unitWith("a", 10)
	a.Steepness = 0.5
	b := unitWith("b", 5)
	b.Steepness = 2.0
	c := unitWith("c", 1)
	c.Steepness = 1.0
	s := initStrat(&Chain{}, []*Unit{a, b, c})
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want steepest", got)
	}
}

// TestChainOrderingTable pins the full tie-break chain the bucketed index
// must preserve: steepness desc, then SegPos asc, then front TS asc.
func TestChainOrderingTable(t *testing.T) {
	mk := func(steep float64, pos int, ts int64) *Unit {
		u := unitWith("u", ts)
		u.Steepness, u.SegPos = steep, pos
		return u
	}
	cases := []struct {
		name  string
		units []*Unit
		want  int
	}{
		{"steepness dominates", []*Unit{mk(1, 0, 1), mk(3, 9, 99), mk(2, 0, 1)}, 1},
		{"segpos breaks steepness tie", []*Unit{mk(2, 2, 1), mk(2, 0, 99), mk(2, 1, 1)}, 1},
		{"ts breaks full tie", []*Unit{mk(2, 1, 50), mk(2, 1, 10), mk(2, 1, 30)}, 1},
		{"unready steepest skipped", []*Unit{mk(9, 0, 1), mk(1, 0, 5)}, 1},
	}
	cases[3].units[0].closed = true
	for _, tc := range cases {
		s := initStrat(&Chain{}, tc.units)
		if got := s.Pick(); got != tc.want {
			t.Fatalf("%s: picked %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestChainTieBreaksByPosition(t *testing.T) {
	a := unitWith("a", 10)
	a.Steepness, a.SegPos = 1.0, 2
	b := unitWith("b", 20)
	b.Steepness, b.SegPos = 1.0, 0
	s := initStrat(&Chain{}, []*Unit{a, b})
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want earlier position", got)
	}
	// Same position: older element first.
	c := unitWith("c", 5)
	c.Steepness, c.SegPos = 1.0, 0
	s = initStrat(&Chain{}, []*Unit{b, c})
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want older front element", got)
	}
}

func TestChainPrefersPendingDone(t *testing.T) {
	steep := unitWith("s", 1)
	steep.Steepness = 9
	pending := unitWith("p")
	pending.Steepness = 0.1
	pending.Q.Done(0)
	s := initStrat(&Chain{}, []*Unit{steep, pending})
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want the pending-Done unit regardless of steepness", got)
	}
}

func TestNewStrategy(t *testing.T) {
	for _, name := range []string{"", "fifo", "chain"} {
		if s := NewStrategy(name); s == nil {
			t.Fatalf("nil strategy for %q", name)
		}
		if err := CheckStrategy(name); err != nil {
			t.Fatalf("CheckStrategy(%q): %v", name, err)
		}
	}
	for _, name := range []string{"roundrobin", "maxqueue", "bogus"} {
		if CheckStrategy(name) == nil {
			t.Fatalf("CheckStrategy(%q) accepted an unknown strategy", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown strategy should panic")
		}
	}()
	NewStrategy("bogus")
}

func TestStrategiesReturnMinusOneWhenIdle(t *testing.T) {
	units := []*Unit{unitWith("a"), unitWith("b")}
	for _, name := range strategyNames {
		s := initStrat(NewStrategy(name), units)
		if got := s.Pick(); got != -1 {
			t.Fatalf("%s picked %d from empty queues", name, got)
		}
	}
}

// TestStrategiesAgainstLinearScan cross-checks every indexed strategy
// against the original O(n) scan semantics over randomized queue states
// and incremental mutations.
func TestStrategiesAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		units := make([]*Unit, n)
		for i := range units {
			var tss []int64
			for k := rng.Intn(4); k > 0; k-- {
				tss = append(tss, rng.Int63n(1000))
			}
			units[i] = unitWith("u", tss...)
			units[i].Steepness = float64(rng.Intn(3))
			units[i].SegPos = rng.Intn(3)
			if len(tss) == 0 && rng.Intn(2) == 0 {
				units[i].Q.Done(0) // pending Done
			}
		}
		for _, name := range strategyNames {
			s := initStrat(NewStrategy(name), units)
			got := s.Pick()
			want := scanPick(name, units)
			if !pickEquivalent(name, units, got, want) {
				t.Fatalf("trial %d %s: indexed pick %d, scan pick %d", trial, name, got, want)
			}
			// Mutate: drain one ready unit a step and re-check.
			if got >= 0 {
				var scratch [1]stream.Element
				if _, open := units[got].Q.DrainBatch(scratch[:], 1); !open {
					units[got].closed = true
				}
				s.Update(got)
				g2 := s.Pick()
				w2 := scanPick(name, units)
				if !pickEquivalent(name, units, g2, w2) {
					t.Fatalf("trial %d %s after drain: indexed %d, scan %d", trial, name, g2, w2)
				}
			}
		}
	}
}

// scanPick reimplements the pre-index O(n) selection for cross-checking.
func scanPick(name string, units []*Unit) int {
	switch name {
	case "fifo":
		best, bestTS := -1, int64(1<<62)
		for i, u := range units {
			ready, ts, n := gaugesOf(u)
			if !ready {
				continue
			}
			if n == 0 {
				return i
			}
			if ts < bestTS {
				best, bestTS = i, ts
			}
		}
		return best
	case "chain":
		best := -1
		var bestSteep float64
		bestPos := int(^uint(0) >> 1)
		bestTS := int64(1 << 62)
		for i, u := range units {
			ready, ts, n := gaugesOf(u)
			if !ready {
				continue
			}
			if n == 0 {
				return i
			}
			better := false
			switch {
			case best == -1 || u.Steepness > bestSteep:
				better = true
			case u.Steepness == bestSteep && u.SegPos < bestPos:
				better = true
			case u.Steepness == bestSteep && u.SegPos == bestPos && ts < bestTS:
				better = true
			}
			if better {
				best, bestSteep, bestPos, bestTS = i, u.Steepness, u.SegPos, ts
			}
		}
		return best
	}
	panic("scanPick: unknown strategy " + name)
}

// pickEquivalent reports whether two picks are interchangeable under the
// strategy's ordering (the index may break ties differently than the
// scan's first-encountered rule).
func pickEquivalent(name string, units []*Unit, a, b int) bool {
	if a == b {
		return true
	}
	if a < 0 || b < 0 {
		return false
	}
	ra, tsa, na := gaugesOf(units[a])
	rb, tsb, nb := gaugesOf(units[b])
	if !ra || !rb {
		return false
	}
	switch name {
	case "fifo":
		return tsa == tsb || na == 0 && nb == 0
	case "chain":
		if na == 0 && nb == 0 {
			return true
		}
		return units[a].Steepness == units[b].Steepness &&
			units[a].SegPos == units[b].SegPos && tsa == tsb
	}
	return false
}

// TestFIFOGlobalOrderAtBatchGranularity is the property test for the FIFO
// invariant the ready index must preserve: with Batch=1 a single executor
// delivers elements in global event-time order across all its queues.
func TestFIFOGlobalOrderAtBatchGranularity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nq, per = 6, 200
	units := make([]*Unit, nq)
	rec := &orderRecorder{}
	next := int64(0)
	for i := range units {
		q := queue.New("q", 0)
		q.Subscribe(rec, 0)
		units[i] = &Unit{Q: q}
	}
	// Deal globally increasing timestamps round-robin-randomly across the
	// queues, so every queue's buffer is locally sorted (the FIFO model).
	for k := 0; k < nq*per; k++ {
		next += int64(1 + rng.Intn(5))
		testutil.Push(units[rng.Intn(nq)].Q, 0, stream.Element{TS: next})
	}
	s := initStrat(&FIFO{}, units)
	var scratch [1]stream.Element
	for {
		i := s.Pick()
		if i < 0 {
			break
		}
		if _, open := units[i].Q.DrainBatch(scratch[:], 1); !open {
			units[i].closed = true
		}
		s.Update(i)
	}
	if len(rec.ts) != nq*per {
		t.Fatalf("delivered %d of %d", len(rec.ts), nq*per)
	}
	if !sort.SliceIsSorted(rec.ts, func(i, j int) bool { return rec.ts[i] < rec.ts[j] }) {
		t.Fatal("batch=1 FIFO drain violated global event-time order")
	}
}

type orderRecorder struct{ ts []int64 }

func (r *orderRecorder) ProcessBatch(_ int, es []stream.Element) {
	for _, e := range es {
		r.ts = append(r.ts, e.TS)
	}
}
func (r *orderRecorder) Done(int) {}

// TestPickDoesNotAllocate guards the hot path: a Pick+Update cycle on
// every strategy must run allocation-free once the index is built.
func TestPickDoesNotAllocate(t *testing.T) {
	units := make([]*Unit, 64)
	for i := range units {
		units[i] = unitWith("q", int64(i), int64(i+100), int64(i+200))
		units[i].Steepness = float64(i % 5)
		units[i].SegPos = i % 3
	}
	for _, name := range strategyNames {
		s := initStrat(NewStrategy(name), units)
		got := testing.AllocsPerRun(200, func() {
			i := s.Pick()
			if i < 0 {
				t.Fatal("no pick")
			}
			s.Update(i)
		})
		if got != 0 {
			t.Fatalf("%s: %v allocs per Pick+Update, want 0", name, got)
		}
	}
}
