// Command e2ebench is the repository's end-to-end benchmark. It drives the
// engine through its public API — hmts.Engine with an ExternalSource
// in-process, or a spawned hmtsd over one loopback connection — on one of
// four workloads, checks every output against a reference computed from
// the same generated input, and prints one JSON line of metrics:
//
//	go run . --workload cheap-chain --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// again with timing spans around every call into the engine and periodic
// snapshot polling, and prints the per-layer metrics instead. NOTES.md
// says why each workload exists and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// epoch anchors now(): the monotonic clock every stamp in the benchmark
// uses, so latencies never mix clocks.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// run is one benchmark invocation: the accounting every phase adds to and
// the metrics it reports.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	nproc    int
	tr       *tracer // nil outside the traced pass

	attempted, failed int64

	e2e   map[string]float64
	layer map[string]float64

	genLate           Hist      // open-loop generator lateness, all phases
	polled            polled    // traced snapshot polling
	muts              mutations // live mutations, all phases
	accepted, dropped uint64    // ingress counters, all phases
	wireInfo          []string  // INFO lines of the last polled METRICS reply
}

// fail records n failed operations with their cause. Failures are never
// retried or masked; any one makes the run incorrect.
func (r *run) fail(n int64, format string, args ...any) {
	if n <= 0 {
		n = 1
	}
	r.failed += n
	fmt.Fprintf(os.Stderr, "e2ebench: %s: FAIL (%d): %s\n", r.workload, n, fmt.Sprintf(format, args...))
}

// logf prints a progress line to standard error, which the result line
// on standard output never shares.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: %s: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// budget returns share of the run's --seconds.
func (r *run) budget(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*run){
	"wire-agg":    runWireAgg,
	"cheap-chain": runCheapChain,
	"stall-mix":   runStallMix,
	"live-mutate": runLiveMutate,
}

func main() {
	name := flag.String("workload", "", "workload: wire-agg, cheap-chain, stall-mix or live-mutate")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>; workloads: %v\n", workloadNames())
		os.Exit(2)
	}
	r := newRun(*name, *seed, *seconds, *traced == 1)
	stop := r.watchdog()
	drive(r)
	stop()
	if err := emit(os.Stdout, r, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

func newRun(name string, seed uint64, seconds float64, traced bool) *run {
	r := &run{
		workload: name,
		seed:     seed,
		seconds:  seconds,
		nproc:    runtime.NumCPU(),
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// emit prints the result line. The metric names and units are the ones
// BENCHMARK.json declares; every one is printed on every workload, so a
// missing measurement is an error rather than a silent gap.
func emit(w io.Writer, r *run, traced bool) error {
	defs, vals := e2eMetrics, r.e2e
	if traced {
		defs, vals = layerMetrics, r.layer
	}
	out := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			if !traced {
				return fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
			}
			v = 0 // a layer this workload does not exercise; see NOTES.md
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if r.attempted < 1 {
		return fmt.Errorf("%s: nothing attempted", r.workload)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

type metricDef struct{ name, unit string }

// e2eMetrics are the gated metrics, reported by every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"capacity_eps", "1/s"},
	{"capacity_1p_eps", "1/s"},
	{"cpu_ns_per_elem", "ns"},
	{"lat_lo_p50_us", "us"},
	{"lat_hi_p50_us", "us"},
	{"peak_rss_mb", "MB"},
}
