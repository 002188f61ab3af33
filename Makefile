GO ?= go

.PHONY: ci vet build test e2etest race saturation bench benchsmoke bounded soakshort soakshard soakautoscale soakchurn benchdiff fuzzsmoke

# The gate every PR must pass. benchsmoke compiles and runs every benchmark
# once so a PR cannot rot the measurement harness silently; soakshort runs
# the canonical burst + stall + live-reconfigure soak scenario with SLO
# assertions; soakshard does the same for the data-parallel shard region
# with live replica-count changes; soakautoscale closes the control loop
# (the adapt planner must grow and shrink the region on its own); soakchurn
# registers and drops 50 standing queries live mid-burst through the
# multi-query subsumption path with a zero-drop SLO; e2etest vets and tests
# the end-to-end benchmark, which is its own module; benchdiff re-measures
# the tracked benchmarks and fails on regressions beyond the tolerance
# band.
ci: vet build test e2etest race saturation benchsmoke bounded soakshort soakshard soakautoscale soakchurn benchdiff

# Covers cmd/ as well as internal/ — ./... is the whole module.
vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# e2ebench has its own go.mod, so the root ./... never reaches it.
e2etest:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# The whole module under the data-race detector: the batched queues,
# ingress buffer, executors, adaptive controller, hmtsd sessions and the
# engine-level live mutations (SwitchMode, Rebalance, Reshard, AddQuery,
# DropQuery) all run concurrently with Metrics readers, and no package is
# too slow to leave out.
race:
	$(GO) test -race ./...

# The bounded-queue deadlock regression gate: safe-point parking must
# survive a single OS thread, where a waiting producer that kept its run
# permit would freeze the whole process rather than just one pipeline.
# The Backpressured tests mutate the deployment while the source waits;
# the TS tests check arrival-order grants and stop-abort on one OS thread.
bounded:
	GOMAXPROCS=1 $(GO) test -timeout 120s \
		-run 'Bounded|BlockedProducer|PermitHolding|LeaksNoGoroutines|Reconfigure|Backpressured|^TestTS' \
		./internal/queue ./internal/sched .

# The capacity-model validation is a timing experiment; run it a few times so
# a flaky pass cannot slip through.
saturation:
	$(GO) test -run TestSaturationShape -count=3 ./internal/exp

# Full benchmark run; the scheduler numbers also land in BENCH_sched.json
# (name -> ns/op, allocs/op) for machine diffing across PRs.
bench:
	$(GO) test -bench . -benchmem ./internal/queue
	$(GO) test -bench . -benchmem ./internal/sched | $(GO) run ./cmd/benchjson > BENCH_sched.json
	@echo wrote BENCH_sched.json
	{ $(GO) test -bench . -benchmem ./internal/ingest; \
	  $(GO) test -bench . -benchmem ./cmd/hmtsd; \
	  $(GO) test -bench . -benchmem ./ql; } | $(GO) run ./cmd/benchjson > BENCH_ingest.json
	@echo wrote BENCH_ingest.json
	$(GO) test -bench . -benchmem ./internal/op | $(GO) run ./cmd/benchjson > BENCH_ops.json
	@echo wrote BENCH_ops.json
	$(GO) test -run '^$$' -bench 'ShardScaling|LiveReshard' -benchmem . | $(GO) run ./cmd/benchjson > BENCH_shard.json
	@echo wrote BENCH_shard.json
	$(GO) test -run '^$$' -bench 'MultiQuery|RegisterSimilar' -benchmem . | $(GO) run ./cmd/benchjson > BENCH_multi.json
	@echo wrote BENCH_multi.json
	$(GO) test -bench . -benchmem ./adapt | $(GO) run ./cmd/benchjson > BENCH_adapt.json
	@echo wrote BENCH_adapt.json

# One iteration of every benchmark: a compile-and-smoke pass for ci. The
# root package runs only the shard benches — the Fig* experiment benchmarks
# are full evaluation runs and far too slow for a smoke pass.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/queue ./internal/sched ./internal/ingest ./internal/op ./cmd/hmtsd ./ql ./adapt
	$(GO) test -run '^$$' -bench 'ShardScaling|LiveReshard|MultiQuery|RegisterSimilar' -benchtime 1x .

# The canonical soak gate: ~9 seconds of open-loop bursty load through the
# external ingest path with a slow-consumer stall, a live mode switch, and
# a shed cycle, asserting per-second latency/backlog/loss SLOs. Fails the
# build on any SLO violation or failure to drain.
soakshort:
	$(GO) run ./cmd/hmtssoak -scenario short

# The shard soak gate: bursty zipf load through a sharded aggregation under
# bounded Block-policy queues with three live replica-count changes
# mid-run. Catches reshard deadlocks, stuck merges and lost elements.
soakshard:
	$(GO) run ./cmd/hmtssoak -scenario shard

# The autoscaling soak gate: a 10x ramp-hold-decay against a sharded
# aggregation with NO scripted reshards — the adapt planner must grow
# the replica count from measured c(v)/d(v) on the ramp and shrink it back
# on the decay, within a reshard budget that forbids flapping, with zero
# drops under Block-policy bounded queues.
soakautoscale:
	$(GO) run ./cmd/hmtssoak -scenario autoscale

# The query-churn soak gate: 50 standing queries registered and dropped
# live mid-burst through the subsumption rewriter against a Block-policy
# ingress. Catches splice deadlocks, pruned-queue leaks and lost elements
# — zero drops are an SLO, not a hope.
soakchurn:
	$(GO) run ./cmd/hmtssoak -scenario churn

# Perf-regression gate: re-measure the tracked benchmark suites with a
# short benchtime (two repetitions, min taken) and diff against the
# committed BENCH_*.json baselines. Every leg is diffed and reports its
# verdict; the target fails at the end if any leg did. The tolerance band is wide (see
# cmd/benchdiff) so CI noise passes but order-of-magnitude regressions and
# new hot-path allocations fail. Re-baseline with `make bench` after an
# intentional perf change.
BENCHDIFF_TIME ?= 0.2s
BENCHDIFF_FLAGS ?= -q
benchdiff:
	@mkdir -p .bench
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHDIFF_TIME) -count=2 ./internal/sched | $(GO) run ./cmd/benchjson > .bench/sched.json
	{ $(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHDIFF_TIME) -count=2 ./internal/ingest; \
	  $(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHDIFF_TIME) -count=2 ./cmd/hmtsd; \
	  $(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHDIFF_TIME) -count=2 ./ql; } | $(GO) run ./cmd/benchjson > .bench/ingest.json
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHDIFF_TIME) -count=2 ./internal/op | $(GO) run ./cmd/benchjson > .bench/ops.json
	$(GO) test -run '^$$' -bench 'ShardScaling|LiveReshard' -benchmem -benchtime $(BENCHDIFF_TIME) -count=2 . | $(GO) run ./cmd/benchjson > .bench/shard.json
	$(GO) test -run '^$$' -bench 'MultiQuery|RegisterSimilar' -benchmem -benchtime $(BENCHDIFF_TIME) -count=2 . | $(GO) run ./cmd/benchjson > .bench/multi.json
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHDIFF_TIME) -count=2 ./adapt | $(GO) run ./cmd/benchjson > .bench/adapt.json
	$(GO) build -o .bench/benchdiff ./cmd/benchdiff
	@failed=; for leg in sched ingest ops shard multi adapt; do \
		echo "== benchdiff $$leg"; \
		.bench/benchdiff $(BENCHDIFF_FLAGS) BENCH_$$leg.json .bench/$$leg.json || failed="$$failed $$leg"; \
	done; \
	if [ -n "$$failed" ]; then echo "benchdiff: FAIL:$$failed"; exit 1; fi; \
	echo "benchdiff: all legs pass"

# Short fuzz pass over the hmtsd line protocol, its result encoder, ql's
# compiled expressions, the ingress ring, the order-restoring shard merge, the windowed aggregate,
# the batch-size invariance of every operator, the window fifo and live
# mutation of a whole deployment; the corpora keep growing under
# testdata/fuzz as failures are found.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzReadLine -fuzztime 10s ./cmd/hmtsd
	$(GO) test -run '^$$' -fuzz FuzzPushParse -fuzztime 10s ./cmd/hmtsd
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s ./cmd/hmtsd
	$(GO) test -run '^$$' -fuzz FuzzResultLine -fuzztime 10s ./cmd/hmtsd
	$(GO) test -run '^$$' -fuzz FuzzExpr -fuzztime 10s ./ql
	$(GO) test -run '^$$' -fuzz FuzzBuffer -fuzztime 10s ./internal/ingest
	$(GO) test -run '^$$' -fuzz FuzzShardMerge -fuzztime 10s ./internal/op
	$(GO) test -run '^$$' -fuzz FuzzWindowAgg -fuzztime 10s ./internal/op
	$(GO) test -run '^$$' -fuzz FuzzBatchSplit -fuzztime 10s ./internal/op
	$(GO) test -run '^$$' -fuzz FuzzRing -fuzztime 10s ./internal/ring
	$(GO) test -run '^$$' -fuzz FuzzLiveMutation -fuzztime 10s .
