package exp

import (
	"fmt"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/sched"
	"github.com/dsms/hmts/internal/simtime"
	"github.com/dsms/hmts/internal/workload"
)

// SaturationConfig parameterizes the capacity-model validation experiment
// (an extension): a fused chain of operators with known costs is fed a
// linearly accelerating stream; the rate at which the source starts
// lagging is the VO's empirical saturation point, which the §5.1.2 model
// predicts as 1/c(P).
type SaturationConfig struct {
	CostsNS  []int64 // per-operator costs of the fused chain
	StartHz  float64
	EndHz    float64
	Elements int
	// LagThreshold is the source lag, in nanoseconds, that counts as
	// saturated.
	LagThreshold int64
}

// saturationReps is how many ramps the measured saturation rate is the
// median of.
const saturationReps = 5

// DefaultSaturation returns a chain with c(P) = 10µs (predicted saturation
// 100k elems/s) ramped from 20k to 250k elems/s.
func DefaultSaturation(s Scale) SaturationConfig {
	cfg := SaturationConfig{
		CostsNS:      []int64{2000, 3000, 5000},
		StartHz:      20_000,
		EndHz:        250_000,
		Elements:     120_000,
		LagThreshold: int64(20 * time.Millisecond),
	}
	if s.TimeScale > 40 {
		cfg.Elements = 60_000
	}
	return cfg
}

// Saturation runs the ramp and reports the predicted versus measured
// saturation rate of the fused VO. One ramp lasts about a second, and a
// few milliseconds of the host's scheduling noise near the onset move it,
// so the measured rate is the median over saturationReps ramps.
func Saturation(cfg SaturationConfig) *Report {
	r := &Report{
		Name:    "ext-saturation",
		Title:   "Capacity model validation: predicted vs measured VO saturation rate",
		Headers: []string{"c(P)_us", "predicted_sat_hz", "measured_sat_hz", "measured/predicted"},
	}
	var cP float64
	for _, c := range cfg.CostsNS {
		cP += float64(c)
	}
	runs := make([]float64, saturationReps)
	for i := range runs {
		runs[i] = saturationRamp(cfg)
	}
	measured := median(runs)

	predicted := 1e9 / cP
	ratio := 0.0
	if measured > 0 {
		ratio = measured / predicted
	}
	r.AddRow(f2(cP/1e3), f0(predicted), f0(measured), f2(ratio))
	r.AddNote("the §5.1.2 capacity model: a VO saturates when the input interarrival d(P) falls to its summed cost c(P); measured saturation should sit at or slightly below 1/c(P) (engine overhead adds to c)")
	if measured < 0 {
		r.AddNote("WARNING: the ramp never saturated the VO; raise EndHz")
	}
	return r
}

// saturationRamp runs one ramp and returns the measured saturation rate
// in elements per second, or -1 if the VO never saturated.
func saturationRamp(cfg SaturationConfig) float64 {
	clock := simtime.NewReal()
	ramp := workload.Ramp{StartHz: cfg.StartHz, EndHz: cfg.EndHz, N: cfg.Elements}
	src := workload.New("ramp", cfg.Elements, workload.SeqKeys(), ramp, clock)

	g := graph.New()
	ns := g.AddSource("ramp", src, cfg.StartHz)
	prev := ns
	for i, c := range cfg.CostsNS {
		o := op.NewCostSim(fmt.Sprintf("op%d", i), c, nil)
		n := g.AddOp(o.Name(), o, float64(c), 1)
		g.Connect(prev, n, 0)
		prev = n
	}
	sink := op.NewNull(1)
	nk := g.AddSink("null", sink)
	g.Connect(prev, nk, 0)
	if err := g.DeriveRates(); err != nil {
		panic(err)
	}

	// Pure DI: the source thread runs the whole VO, so its lag is the
	// saturation signal (§6.3's measurement technique).
	d, err := sched.Build(g, sched.PureDI(g), sched.Options{})
	if err != nil {
		panic(err)
	}

	// Sample the lag until it crosses the threshold. Reading the ramp rate
	// at the crossing overshoots the true saturation point: the threshold
	// only certifies that lag has been *accumulating*, and by the time
	// 20ms of backlog exists the ramp has accelerated far past the rate at
	// which the VO first fell behind (the seed measured ~1.36× the model
	// this way). Instead, record the emitted index at the moment lag first
	// starts growing persistently — the onset of the backlog — and
	// evaluate the ramp there. Transient scheduler hiccups below onsetEps
	// reset the onset, so only the final, unrecovered growth run counts.
	measured := -1.0
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		onsetEps := cfg.LagThreshold / 20
		if onsetEps < int64(time.Millisecond) {
			onsetEps = int64(time.Millisecond)
		}
		onset := -1
		for {
			select {
			case <-tick.C:
				lag := src.LagNS(clock.Now())
				switch {
				case lag <= onsetEps:
					onset = -1 // recovered: that was jitter, not saturation
				case onset < 0:
					onset = int(src.Emitted())
				}
				if lag > cfg.LagThreshold {
					i := onset
					if i < 0 {
						i = int(src.Emitted())
					}
					if i >= cfg.Elements {
						i = cfg.Elements - 1
					}
					measured = 1e9 / float64(ramp.Next(i))
					return
				}
			case <-stop:
				return
			}
		}
	}()
	d.Start()
	d.Wait()
	close(stop)
	<-sampled
	return measured
}
