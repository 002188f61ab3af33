package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
)

func TestHistQuantilesMatchExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 1000, 100_000} {
		var h Hist
		xs := make([]int64, n)
		for i := range xs {
			// Log-uniform over 1 ns .. 10 s: every bucket regime.
			xs[i] = int64(math.Exp(rng.Float64() * math.Log(1e10)))
			h.Record(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			// Quantile reports the sample at rank floor(q*(n-1)), placed
			// within its bucket.
			exact := float64(xs[int(q*float64(n-1))])
			got := h.Quantile(q)
			// One bucket spans at most 1/64 of its lower bound; allow
			// that plus the interpolation's half bucket either way.
			if tol := exact/32 + 1; math.Abs(got-exact) > tol {
				t.Errorf("n=%d q=%v: got %v, exact %v (tolerance %v)", n, q, got, exact, tol)
			}
		}
		if h.Max() != xs[n-1] || h.Count() != uint64(n) {
			t.Errorf("n=%d: max %d count %d, want %d %d", n, h.Max(), h.Count(), xs[n-1], n)
		}
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	for idx := 1; idx < histBuckets; idx++ {
		lo, w := bucketRange(idx)
		plo, pw := bucketRange(idx - 1)
		if plo+pw != lo {
			t.Fatalf("bucket %d starts at %d, previous ends at %d", idx, lo, plo+pw)
		}
		if bucketOf(lo) != idx || bucketOf(lo+w-1) != idx {
			t.Fatalf("bucket %d [%d,%d) does not map back", idx, lo, lo+w)
		}
	}
	if bucketOf(math.MaxInt64) != histBuckets-1 || bucketOf(-5) != 0 {
		t.Fatal("out-of-range values are not clamped")
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, c Hist
	for v := int64(0); v < 5000; v += 7 {
		a.Record(v)
		c.Record(v)
		c.Record(v)
	}
	b.Merge(&a)
	b.Merge(&a)
	if b != c {
		t.Fatalf("merging twice: %d/%v/%d, recording twice: %d/%v/%d", b.Count(), b.Quantile(0.5), b.Max(), c.Count(), c.Quantile(0.5), c.Max())
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	h := new(Hist)
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v = v*3 + 1 }); n != 0 {
		t.Fatalf("Record allocates %v times per call", n)
	}
}

// bruteWindowCount recomputes refWindowCount's result by scanning every
// earlier element for every element.
func bruteWindowCount(in input, n int, window int64) digest {
	var d digest
	var pass []hmts.Element
	for i := 0; i < n; i++ {
		e := in.at(i)
		if !positive(e) {
			continue
		}
		e = scale(e)
		pass = append(pass, e)
		c := 0
		for _, p := range pass {
			if p.Key == e.Key && int64(p.TS) > int64(e.TS)-window {
				c++
			}
		}
		d.add(int64(e.TS), e.Key, float64(c))
	}
	return d
}

func TestRefWindowCountMatchesBruteForce(t *testing.T) {
	for _, in := range []input{
		{seed: 1, keys: 7, step: 1000},   // many rows per key in the window
		{seed: 2, keys: 300, step: 3000}, // mostly one row per key
	} {
		for _, w := range []int64{1, 5000, 1_000_000} {
			got, want := refWindowCount(in, 3000, w), bruteWindowCount(in, 3000, w)
			if got != want {
				t.Errorf("%+v window %d: %+v, brute force %+v", in, w, got, want)
			}
		}
	}
}

// TestRefWindowCountMatchesEngine runs the reference against the engine's
// own window aggregate on a replayed stream, so the reference cannot
// drift from the semantics it checks.
func TestRefWindowCountMatchesEngine(t *testing.T) {
	in := input{seed: 3, keys: 50, step: 20_000}
	const n = 20_000
	els := make([]hmts.Element, n)
	in.fill(els, 0)
	eng := hmts.New()
	s := newSink(in, nil)
	eng.Source("in", hmts.Replay(els)).Where("pos", positive).Map("scale", scale).
		Aggregate("cnt", hmts.Count, time.Duration(window), byKey).Into("out", s)
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})
	eng.Wait()
	got, _, _ := s.snapshot()
	if want := refWindowCount(in, n, window); got != want {
		t.Fatalf("engine %+v, reference %+v", got, want)
	}
}

func TestRefFilteredAndDigestOrder(t *testing.T) {
	in := input{seed: 4, keys: 16, step: 1}
	var fwd, rev digest
	var kept []hmts.Element
	for i := 0; i < 1000; i++ {
		if e := in.at(i); cheap(e) {
			kept = append(kept, e)
		}
	}
	for i := range kept {
		fwd.add(int64(kept[i].TS), kept[i].Key, kept[i].Val)
		e := kept[len(kept)-1-i]
		rev.add(int64(e.TS), e.Key, e.Val)
	}
	if fwd != rev {
		t.Fatal("digest depends on order")
	}
	if got := refFiltered(in, 1000, cheap); got != fwd {
		t.Fatalf("refFiltered %+v, want %+v", got, fwd)
	}
	if in.seqOf(in.at(123).TS) != 123 {
		t.Fatal("seqOf does not invert at")
	}
}

func TestCPUReaders(t *testing.T) {
	c0 := selfCPU()
	p0, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	c1 := selfCPU()
	p1, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if x == 0 || c1-c0 < int64(200*time.Millisecond) {
		t.Fatalf("rusage saw %v of a 300ms spin", time.Duration(c1-c0))
	}
	// /proc counts in 10 ms ticks.
	if d := (p1 - p0) - (c1 - c0); d > int64(40*time.Millisecond) || d < -int64(40*time.Millisecond) {
		t.Fatalf("/proc saw %v, rusage %v", time.Duration(p1-p0), time.Duration(c1-c0))
	}
	got, err := parseStatCPU([]byte("42 (a b) c) S 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 5 1 1"))
	if err != nil || got != 3e9 {
		t.Fatalf("parseStatCPU = %v, %v; want 3s", got, err)
	}
}

func TestRSSReader(t *testing.T) {
	rss, err := peakRSS(0)
	if err != nil || rss < 1<<20 {
		t.Fatalf("peakRSS = %d, %v", rss, err)
	}
	got, err := parseHWM([]byte("Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t    1234 kB\n"))
	if err != nil || got != 1234<<10 {
		t.Fatalf("parseHWM = %d, %v", got, err)
	}
	if _, err := parseHWM([]byte("VmRSS: 1 kB\n")); err == nil {
		t.Fatal("missing VmHWM accepted")
	}
}

func TestParseResult(t *testing.T) {
	ts, key, val, ok := parseResult([]byte("0 1000 17 3"))
	if !ok || ts != 1000 || key != 17 || val != 3 {
		t.Fatalf("got %d %d %v %v", ts, key, val, ok)
	}
	if _, _, val, ok = parseResult([]byte("0 1 2 1e+06")); !ok || val != 1e6 {
		t.Fatalf("float fallback: %v %v", val, ok)
	}
	if _, _, _, ok = parseResult([]byte("0 x 2 3")); ok {
		t.Fatal("malformed result accepted")
	}
}

// buildDaemon builds hmtsd for the wire-agg smoke pass.
func buildDaemon(t *testing.T) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hmtsd")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/dsms/hmts/cmd/hmtsd").CombinedOutput(); err != nil {
		t.Fatalf("build hmtsd: %v\n%s", err, out)
	}
	hmtsdPath = bin
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced, and
// checks that it is correct and prints every metric.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	buildDaemon(t)
	// Trace dumps land in the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			r := newRun(name, 7, 0.3, traced)
			workloads[name](r)
			if r.failed != 0 {
				t.Fatalf("%s traced=%v: %d of %d failed", name, traced, r.failed, r.attempted)
			}
			var out bytes.Buffer
			if err := emit(&out, r, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var rep report
			if err := json.Unmarshal(out.Bytes(), &rep); err != nil || !rep.Correct {
				t.Fatalf("%s traced=%v: %q: %v", name, traced, out.String(), err)
			}
			if !traced {
				for _, m := range e2eMetrics {
					if v := rep.Metrics[m.name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", name, m.name, v)
					}
				}
			} else if len(rep.Metrics) != len(layerMetrics) {
				t.Errorf("%s: %d per-layer metrics, want %d", name, len(rep.Metrics), len(layerMetrics))
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which declares the
// metrics to whoever runs the benchmark, in step with what it prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := fmt.Sprint(names), fmt.Sprint(workloadNames()); got != want {
		t.Errorf("declared workloads %s, benchmark runs %s", got, want)
	}
	check := func(kind string, decl []struct{ Name, Unit string }, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Errorf("%s: %d declared, %d printed", kind, len(decl), len(defs))
			return
		}
		for i, d := range defs {
			if decl[i].Name != d.name || decl[i].Unit != d.unit {
				t.Errorf("%s %d: declared %s %s, printed %s %s", kind, i, decl[i].Name, decl[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, e2eMetrics)
	check("per_layer", decl.PerLayer, layerMetrics)
}

func TestQuietKeepsTheLessStolenHalf(t *testing.T) {
	for _, c := range []struct {
		steals []float64
		want   string
	}{
		{[]float64{0, 0, 0, 0}, "[0 1 2 3]"},
		{[]float64{0.2, 0, 0.1, 0.3}, "[1 2]"},
		{[]float64{0.2, 0, 0.1}, "[1 2]"},
		{[]float64{0.1, 0, 0, 0.3}, "[1 2]"},
	} {
		if got := fmt.Sprint(quiet(c.steals)); got != c.want {
			t.Errorf("quiet(%v) = %s, want %s", c.steals, got, c.want)
		}
	}
}
