package exp

import (
	"strconv"
	"testing"

	"github.com/dsms/hmts/internal/testutil"
)

// cell parses a numeric table cell.
func cell(t *testing.T, r *Report, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(r.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d = %q: %v", r.Name, row, col, r.Rows[row][col], err)
	}
	return v
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("timing experiment (skipped under -short and -race)")
	}
	rep := Fig6(DefaultFig6(Fast))
	t.Logf("\n%s", rep.Table())
	snjCollapse := cell(t, rep, 0, 1)
	shjCollapse := cell(t, rep, 1, 1)
	if snjCollapse < 0 {
		t.Fatal("SNJ never collapsed; it must (paper: at 28% of the window)")
	}
	if shjCollapse < 0 {
		t.Fatal("SHJ never collapsed; it must (paper: at ~97% of the window)")
	}
	if snjCollapse >= shjCollapse {
		t.Fatalf("SNJ should collapse before SHJ: snj=%.3fs shj=%.3fs", snjCollapse, shjCollapse)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("timing experiment (skipped under -short and -race)")
	}
	rep := Fig7(Fast)
	t.Logf("\n%s", rep.Table())
	last := len(rep.Rows) - 1
	di := cell(t, rep, last, 1)
	ots := cell(t, rep, last, 2)
	gts := cell(t, rep, last, 3)
	if di > ots*1.10 {
		t.Errorf("DI (%.1fms) should not be slower than OTS (%.1fms)", di, ots)
	}
	if di > gts*1.10 {
		t.Errorf("DI (%.1fms) should not be slower than GTS (%.1fms)", di, gts)
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("timing experiment (skipped under -short and -race)")
	}
	rep := Fig8(Fast)
	t.Logf("\n%s", rep.Table())
	last := len(rep.Rows) - 1
	di := cell(t, rep, last, 1)
	ots := cell(t, rep, last, 2)
	if di > ots*1.10 {
		t.Errorf("at %s queries DI (%.1fms) should beat OTS (%.1fms)", rep.Rows[last][0], di, ots)
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("timing experiment (skipped under -short and -race)")
	}
	rep := Fig9(DefaultFig9(Fast))
	t.Logf("\n%s", rep.Table())
	fifoDone := cell(t, rep, 0, 1)
	chainDone := cell(t, rep, 1, 1)
	hmtsDone := cell(t, rep, 2, 1)
	if hmtsDone > fifoDone*1.15 || hmtsDone > chainDone*1.15 {
		t.Errorf("HMTS completion %.0fs should not exceed GTS (fifo %.0fs, chain %.0fs)",
			hmtsDone, fifoDone, chainDone)
	}
	hmtsT50 := cell(t, rep, 2, 5)
	chainT50 := cell(t, rep, 1, 5)
	if hmtsT50 > chainT50*1.15 {
		t.Errorf("HMTS should produce results earlier than GTS-Chain: t50 %.0fs vs %.0fs", hmtsT50, chainT50)
	}
	// The initial burst must be visible in every memory curve. The peak
	// itself is racy (all settings drain the flat-out burst at the same
	// speed), so only sanity bounds are asserted here; the trickle-phase
	// separation is recorded in EXPERIMENTS.md.
	peaks := map[string]float64{}
	for _, name := range []string{"mem-gts-fifo", "mem-gts-chain", "mem-hmts"} {
		s := rep.Series[name]
		if s == nil {
			t.Fatalf("missing series %s", name)
		}
		peaks[name] = s.Max()
		if s.Max() < 1000 {
			t.Errorf("%s peak %.0f; the burst should appear in queue memory", name, s.Max())
		}
	}
	worstGTS := peaks["mem-gts-fifo"]
	if peaks["mem-gts-chain"] > worstGTS {
		worstGTS = peaks["mem-gts-chain"]
	}
	if peaks["mem-hmts"] > worstGTS*2 {
		t.Errorf("HMTS memory peak %.0f is out of line with GTS peaks (%.0f)",
			peaks["mem-hmts"], worstGTS)
	}
}

func TestLatencyShape(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("timing experiment (skipped under -short and -race)")
	}
	rep := Latency(DefaultLatency(Fast))
	t.Logf("\n%s", rep.Table())
	gtsP99 := cell(t, rep, 0, 2)
	otsP99 := cell(t, rep, 1, 2)
	hmtsP99 := cell(t, rep, 2, 2)
	if gtsP99 < otsP99*5 || gtsP99 < hmtsP99*5 {
		t.Errorf("GTS p99 (%vus) should dwarf OTS (%vus) and HMTS (%vus)", gtsP99, otsP99, hmtsP99)
	}
	for i := 0; i < 3; i++ {
		if cell(t, rep, i, 4) == 0 {
			t.Errorf("row %d produced no alerts", i)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	rep := Fig11(DefaultFig11(Fast))
	t.Logf("\n%s", rep.Table())
	ffdNeg := cell(t, rep, 0, 4)
	segNeg := cell(t, rep, 1, 4)
	chainNeg := cell(t, rep, 2, 4)
	// Negative capacities are <= 0; closer to zero is better.
	if ffdNeg < segNeg || ffdNeg < chainNeg {
		t.Errorf("Algorithm 1 should have the least negative capacity: ffd=%.2f seg=%.2f chain=%.2f",
			ffdNeg, segNeg, chainNeg)
	}
}

func TestSaturationShape(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("timing experiment (skipped under -short and -race)")
	}
	rep := Saturation(DefaultSaturation(Fast))
	t.Logf("\n%s", rep.Table())
	ratio := cell(t, rep, 0, 3)
	if ratio <= 0 {
		t.Fatal("the ramp never saturated the VO")
	}
	// The capacity model: saturation at or somewhat below 1/c(P); far
	// above would mean the model underestimates capacity, far below that
	// engine overhead dominates the configured costs.
	if ratio < 0.6 || ratio > 1.15 {
		t.Fatalf("measured/predicted saturation = %v, want ~[0.6, 1.15]", ratio)
	}
}
