// Package stats collects the runtime metadata the scheduler and the queue
// placement heuristic consume: per-operator processing cost c(v), input
// interarrival time d(v), selectivities, queue occupancy time series, and
// result latencies.
package stats
