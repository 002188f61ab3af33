package hmts

import (
	"github.com/dsms/hmts/internal/ingest"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/simtime"
	"github.com/dsms/hmts/internal/workload"
)

// Gen fills the payload of the i-th generated element.
type Gen = workload.Gen

// SourceSpec describes a source for Engine.Source. Construct one with
// Generate, GeneratePoisson, Replay or Custom.
type SourceSpec struct {
	src      op.Source
	rateHint float64
}

// Generate returns a source of n elements at a fixed rate (elements per
// second; 0 = as fast as downstream accepts). It is a real-time source: it
// paces itself on the wall clock and stamps elements with their actual
// emission time. A nil gen yields sequential keys.
func Generate(n int, rateHz float64, gen Gen) SourceSpec {
	var arr workload.Arrival = workload.FixedRate{Hz: rateHz}
	return SourceSpec{
		src:      workload.New("gen", n, gen, arr, simtime.NewReal()),
		rateHint: rateHz,
	}
}

// GeneratePoisson returns a real-time source with Poisson (bursty)
// arrivals of the given mean rate, seeded deterministically.
func GeneratePoisson(n int, meanHz float64, gen Gen, seed uint64) SourceSpec {
	return SourceSpec{
		src:      workload.New("poisson", n, gen, workload.NewPoisson(meanHz, seed), simtime.NewReal()),
		rateHint: meanHz,
	}
}

// GenerateStamped returns a virtual-time source: it never sleeps and
// stamps elements with their scheduled arrival for the given nominal rate.
// Deterministic and fast — ideal for tests and planning studies.
func GenerateStamped(n int, rateHz float64, gen Gen) SourceSpec {
	return SourceSpec{
		src:      workload.New("stamped", n, gen, workload.FixedRate{Hz: rateHz}, nil),
		rateHint: rateHz,
	}
}

// Replay returns a source that replays the given elements verbatim,
// timestamps included.
func Replay(els []Element) SourceSpec {
	return SourceSpec{src: workload.Slice("replay", els)}
}

// Custom wraps any op.Source implementation (for example an application's
// network receiver) with a planner rate hint.
func Custom(src op.Source, rateHintHz float64) SourceSpec {
	return SourceSpec{src: src, rateHint: rateHintHz}
}

// Batched configures a generated source to hand bursts of up to n due
// elements to the engine in one call, amortizing the per-element enqueue
// synchronization on the source's decoupling queue. It only coalesces
// elements that are due at the same instant — a paced source still emits
// on schedule — so it pays off for flat-out, replayed, and bursty-phase
// workloads. It is a no-op for Custom sources (batch in the source's own
// Run instead).
func (sp SourceSpec) Batched(n int) SourceSpec {
	if ws, ok := sp.src.(*workload.Source); ok {
		ws.SetBatch(n)
	}
	return sp
}

// OverloadPolicy selects what an external source's bounded ingress buffer
// does with an incoming element when it is full.
type OverloadPolicy = ingest.Policy

// ParseOverloadPolicy parses the spelling OverloadPolicy.String produces
// ("block", "drop-newest", "drop-oldest"), as used in the hmtsd protocol.
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	return ingest.ParsePolicy(s)
}

// The overload policies of External sources.
const (
	// Block applies backpressure: Push waits until space frees up. Over
	// hmtsd this propagates to the remote client through TCP flow control.
	Block = ingest.Block
	// DropNewest rejects the incoming element (load shedding at the edge).
	DropNewest = ingest.DropNewest
	// DropOldest evicts the oldest buffered element to admit the new one —
	// freshest-data-wins shedding.
	DropOldest = ingest.DropOldest
)

// ExternalConfig tunes an External source. The zero value is valid: Block
// policy, a 4096-element ingress buffer, 256-element drain bursts and no
// planner rate hint.
type ExternalConfig struct {
	// Policy is the overload policy applied when the ingress buffer is
	// full.
	Policy OverloadPolicy
	// Buffer bounds the ingress buffer in elements (default 4096).
	Buffer int
	// Batch bounds how many elements the engine drains from the ingress
	// buffer per burst (default 256).
	Batch int
	// RateHint is the expected push rate in elements per second, feeding
	// the planner; 0 if unknown.
	RateHint float64
}

// ExternalSource feeds a query graph from outside the engine: any
// goroutine (a network handler, an application callback) pushes elements
// into a bounded ingress buffer and the engine drains it like any other
// source. Register it with Engine.Source via Spec, then Push concurrently;
// Close signals end of stream. An element pushed with a zero timestamp is
// stamped with its arrival time.
type ExternalSource struct {
	src      *ingest.Source
	rateHint float64
}

// External returns a push-driven source with the given name and
// configuration.
func External(name string, cfg ExternalConfig) *ExternalSource {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 4096
	}
	return &ExternalSource{
		src:      ingest.NewSource(name, cfg.Buffer, cfg.Policy, cfg.Batch),
		rateHint: cfg.RateHint,
	}
}

// Spec adapts the source for Engine.Source.
func (x *ExternalSource) Spec() SourceSpec {
	return SourceSpec{src: x.src, rateHint: x.rateHint}
}

// Push offers one element and reports whether it was admitted. Under
// Block it waits for space (always true unless the source is closed);
// under DropNewest a full buffer rejects the element; under DropOldest it
// is always admitted, evicting the oldest buffered element. Safe for
// concurrent callers.
func (x *ExternalSource) Push(e Element) bool { return x.src.Push(e) }

// PushBatch offers a burst with amortized synchronization and returns how
// many elements were admitted; policy semantics match Push element-wise.
func (x *ExternalSource) PushBatch(es []Element) int { return x.src.PushBatch(es) }

// Close signals end of stream: buffered elements still drain, then
// downstream operators see Done. Idempotent.
func (x *ExternalSource) Close() { x.src.Close() }

// SetPolicy switches the configured overload policy at runtime.
func (x *ExternalSource) SetPolicy(p OverloadPolicy) { x.src.SetPolicy(p) }

// Shedding reports whether Engine.Shed has engaged the emergency
// DropNewest override on this source.
func (x *ExternalSource) Shedding() bool { return x.src.Shedding() }

// Stats snapshots the ingress buffer's counters.
func (x *ExternalSource) Stats() IngestMetrics {
	return ingestMetricsFrom(x.src.Name(), x.src.IngestStats())
}

// UniformKeys, ZipfKeys and SeqKeys re-export the workload generators for
// use with Generate.
var (
	UniformKeys = workload.UniformKeys
	ZipfKeys    = workload.ZipfKeys
	SeqKeys     = workload.SeqKeys
)
