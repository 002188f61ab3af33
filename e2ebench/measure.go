package main

import (
	"time"
)

// phases is what a workload provides to the common measurement schedule.
type phases interface {
	// setup runs one cycle's share of the repeated set-ups and returns
	// each one's time in seconds.
	setup() []float64
	// capacity runs closed-loop rounds over in at procs GOMAXPROCS until
	// budget is spent, at least one.
	capacity(in input, procs int, budget time.Duration) []round
	// latency deploys an open-loop phase over in at rate elements per
	// second that will run in slices of perSlice ticks of 1 ms.
	latency(in input, rate, slices, perSlice int) latencyPhase
	// peakRSS returns the high-water RSS of the process running the engine.
	peakRSS() (int64, error)
	// traced reports the workload's own per-layer metrics at the end of
	// the traced run.
	traced()
}

// round is one closed-loop capacity round.
type round struct {
	rate  float64 // elements per second, first push to last result
	steal float64 // share of the machine's CPU time other guests took
	cpu   int64   // CPU time of the engine process
	elems int64
}

// latencyPhase is one deployment under open-loop load. It lives for the
// whole run and receives load only during its slices, so it reaches a
// steady state the way a long-running deployment does.
type latencyPhase interface {
	// push runs the open loop for the next slice and returns the share
	// of the machine's CPU time other guests took meanwhile.
	push() (steal float64)
	// finish ends the input, drains and checks the deployment, and
	// returns the admission-to-result latencies of each slice.
	finish() []Hist
}

// stealMeter measures the share of the machine's CPU time that other
// guests of the hypervisor took between start and stop. Where /proc/stat
// is unreadable it reads 0, which makes every sample equally quiet.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t, _ := hostSteal()
	return stealMeter{s, t}
}

func (m stealMeter) stop() float64 {
	s, t, err := hostSteal()
	if err != nil || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// quiet returns the indices of the samples whose steal is at most the
// median steal: the half of the run during which the machine's other
// tenants interfered least. Rounds slowed by another guest taking the
// CPU measure the host, not the engine, and on a shared machine that
// interference comes and goes within seconds. Ties at the median are all
// kept, so a quiet machine keeps every sample.
func quiet(steals []float64) []int {
	cut := median(steals)
	var idx []int
	for i, s := range steals {
		if s <= cut {
			idx = append(idx, i)
		}
	}
	return idx
}

// quietRounds returns the rounds quiet selects.
func quietRounds(rs []round) []round {
	steals := make([]float64, len(rs))
	for i, x := range rs {
		steals[i] = x.steal
	}
	var out []round
	for _, i := range quiet(steals) {
		out = append(out, rs[i])
	}
	return out
}

// quietLatency merges the slices quiet selects; hs is nil after a failed
// phase.
func quietLatency(hs []Hist, steals []float64) *Hist {
	h := new(Hist)
	if hs == nil {
		return h
	}
	for _, i := range quiet(steals) {
		h.Merge(&hs[i])
	}
	return h
}

func rates(rs []round) []float64 {
	out := make([]float64, len(rs))
	for i, x := range rs {
		out[i] = x.rate
	}
	return out
}

// cycles is how many times the schedule repeats its measurements.
// Interleaving them spreads each one over the whole run, so a stretch of
// interference from other tenants of the machine lands on every metric a
// little instead of on one metric entirely.
const cycles = 8

// Shares of --seconds spent on each measurement.
const (
	shareCapN  = 0.3
	shareCap1  = 0.25
	shareLatLo = 0.2
	shareLatHi = 0.25
)

// stream returns base with a seed derived from the run's seed and tag, so
// every phase gets its own input and the same seed gives the same inputs.
func (r *run) stream(base input, tag int) input {
	base.seed = mix64(r.seed) + uint64(tag)
	return base
}

// measure runs the schedule every workload shares and fills in the
// end-to-end metrics and, when traced, the per-layer ones.
func (r *run) measure(p phases, base input, loRate, hiRate int) {
	run := startSteal()
	defer func() {
		r.layer["host.steal_pct"] = 100 * run.stop()
		r.logf("other guests took %.1f%% of this machine's CPU time during the run", r.layer["host.steal_pct"])
	}()
	capIn := r.stream(base, 0)
	if tr := r.tr; tr != nil {
		// The untraced half of the tracing-overhead comparison.
		r.tr = nil
		capRounds := quietRounds(p.capacity(capIn, r.nproc, r.budget(0.2)))
		ph := p.latency(r.stream(base, 1), hiRate, 1, int(r.budget(0.2)/time.Millisecond))
		steal := ph.push()
		hi := quietLatency(ph.finish(), []float64{steal})
		r.tr = tr
		r.layer["trace.overhead_capacity_eps"] = -median(rates(capRounds))
		r.layer["trace.overhead_lat_hi_p50_us"] = -hi.Quantile(0.5) / 1e3
	}

	var setups []float64
	var capN, cap1 []round
	slice := func(share float64) time.Duration { return r.budget(share) / cycles }
	ticks := func(share float64) int { return int(slice(share) / time.Millisecond) }
	loPh := p.latency(r.stream(base, 2), loRate, cycles, ticks(shareLatLo))
	hiPh := p.latency(r.stream(base, 3), hiRate, cycles, ticks(shareLatHi))
	var loSteal, hiSteal []float64
	for c := 0; c < cycles; c++ {
		setups = append(setups, p.setup()...)
		capN = append(capN, p.capacity(capIn, r.nproc, slice(shareCapN))...)
		cap1 = append(cap1, p.capacity(capIn, 1, slice(shareCap1))...)
		loSteal = append(loSteal, loPh.push())
		hiSteal = append(hiSteal, hiPh.push())
	}
	lo, hi := quietLatency(loPh.finish(), loSteal), quietLatency(hiPh.finish(), hiSteal)
	r.logRounds(r.nproc, capN)
	r.logRounds(1, cap1)
	r.logLatency(loRate, lo, loSteal)
	r.logLatency(hiRate, hi, hiSteal)
	r.e2e["setup_s"] = median(setups)
	capN, cap1 = quietRounds(capN), quietRounds(cap1)
	r.e2e["capacity_eps"] = median(rates(capN))
	r.e2e["capacity_1p_eps"] = median(rates(cap1))
	var cpu, elems int64
	for _, x := range capN {
		cpu, elems = cpu+x.cpu, elems+x.elems
	}
	if elems > 0 {
		r.e2e["cpu_ns_per_elem"] = float64(cpu) / float64(elems)
	}
	r.e2e["lat_lo_p50_us"] = lo.Quantile(0.5) / 1e3
	r.e2e["lat_hi_p50_us"] = hi.Quantile(0.5) / 1e3
	rss, err := p.peakRSS()
	if err != nil {
		r.fail(1, "peak RSS: %v", err)
	}
	r.e2e["peak_rss_mb"] = float64(rss) / 1e6

	if r.tr != nil {
		r.layer["trace.overhead_capacity_eps"] += r.e2e["capacity_eps"]
		r.layer["trace.overhead_lat_hi_p50_us"] += r.e2e["lat_hi_p50_us"]
		r.layer["lat.lo_p99_us"] = lo.Quantile(0.99) / 1e3
		r.layer["lat.hi_p99_us"] = hi.Quantile(0.99) / 1e3
		r.layer["lat.max_us"] = float64(max(lo.Max(), hi.Max())) / 1e3
		r.layer["gen.late_p50_us"] = r.genLate.Quantile(0.5) / 1e3
		r.layer["gen.late_p99_us"] = r.genLate.Quantile(0.99) / 1e3
		r.layer["ingest.accepted"] = float64(r.accepted)
		r.layer["ingest.dropped"] = float64(r.dropped)
		p.traced()
		r.finishTrace()
	}
}
