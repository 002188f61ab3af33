// Package hmts is a data stream management system (DSMS) library built
// around hybrid multi-threaded scheduling (HMTS) for continuous queries,
// implementing Cammert et al., "Flexible Multi-Threaded Scheduling for
// Continuous Queries over Data Streams" (ICDE 2007).
//
// Continuous queries are composed with a fluent builder into a single
// shared query graph of push-based operators. Adjacent operators call each
// other directly (direct interoperability), so subgraphs without queues
// behave as one fused virtual operator; decoupling queues are placed on
// selected edges and executed by scheduler threads. The engine supports
// the full spectrum of threading architectures as configurations of one
// mechanism:
//
//   - ModeGTS    — every edge decoupled, one thread runs the whole graph.
//   - ModeOTS    — every edge decoupled, one thread per operator.
//   - ModeDI     — one queue after each source, operators fully fused.
//   - ModePureDI — no queues at all; operators run in source threads.
//   - ModeHMTS   — queues placed by the paper's stall-avoiding heuristic,
//     one thread per virtual operator, arbitrated by a thread scheduler
//     that grants run permits in arrival order.
//
// Modes can be switched while a query runs, and Rebalance re-partitions
// the graph from live cost and rate measurements.
//
// A minimal query:
//
//	eng := hmts.New()
//	src := eng.Source("readings", hmts.Generate(100000, 50000, nil))
//	out := src.
//		Where("positive", func(e hmts.Element) bool { return e.Val >= 0 }).
//		Aggregate("avg", hmts.Avg, time.Second, nil)
//	sink := out.Collect("log")
//	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})
//	eng.Wait()
//	fmt.Println(sink.Len())
package hmts
