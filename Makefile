# Development targets. The repo is plain `go build ./... && go test ./...`;
# these are conveniences around the common loops.

GO ?= go

# There are no smoke targets: what the self-checking binaries checked is
# checked by `test` and `race`. The trace, DOT and Prometheus output of
# `repro -observe`: TestObserveWritesEveryArtifact in cmd/repro and
# TestObservedRunWritesValidTraces in internal/cli. Histograms, flight
# recorder and watchdog armed on a mixed load: TestLatencyAndFlightEndpoints
# in internal/debughttp. The streaming pipeline: TestPipelineRunNZeroAlloc,
# TestTracedCellsCarryLine, TestPipelineTokenLatencyRecorded, and its
# throughput is the harness's pipeline_stream workload.
.PHONY: all build test vet race chaos bench-pairs cover fuzz

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also fails on any file gofmt would rewrite, on an exported name of an
# internal/ package that no other package calls, and on an exported
# interface of one that fewer than two types implement (the allowlists and
# their reasons are in internal/sloc/callers_test.go and sides_test.go).
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) test -run '^(TestExportedHaveCallers|TestUnreachedRules|TestInterfacesHaveTwoSides|TestTwoSidesRules)$$' ./internal/sloc/

race:
	$(GO) test -race . ./internal/...
	$(GO) test -race -count=3 -run 'Rerun|PendingNeverZero|HotColdLayout|Launch|Partition|Reduce|Compose' ./internal/core/
	$(GO) test -race -count=3 -run 'Reclaim|Scrub|OrderedEdges|SliceLaw|OneLaw|WeightedDrain|Notifier|CorrectModel|LostWakeup|IdleWakeup|ParkScrubs|Shrink|Queue|Injection' ./internal/core/ ./internal/wsq/ ./internal/executor/ ./internal/stav2/ ./internal/sim/
	$(GO) test -race -count=3 -run 'Flight|Trace|Latency|Hammer|Settle|HandOff|SettledBeforeDone|Module|Composed|Continue|SinglePred|Fuse|Quiet|Watchdog|Reconcile' ./internal/executor/ ./internal/core/ ./internal/debughttp/ ./internal/pipeline/

# chaos runs the fault-injection stress suite under the race detector:
# deterministic seeded panics/failures/delays over wavefront- and
# traversal-shaped graphs, asserting the executor always quiesces with a
# coherent aggregated error and no goroutine leaks. Then it runs the
# mutation kill table (internal/mutants), one mutant at a time on a copy of
# the module, and prints the table with its wall time.
chaos:
	$(GO) test -race -count=5 ./internal/chaos/
	$(GO) test -count=1 -v -timeout 30m -run '^TestKillTable$$' ./internal/mutants/ -args -mutants

# bench-pairs is the procedure behind a claimed gain (benchmark/README.md,
# "Steadiness"): build the benchmark program from PARENT and from the
# working tree, run PAIRS pairs of the two, alternating which side goes
# first, and gate the working tree against PARENT with `benchmark -compare`
# (exit status 1 when any metric is worse). WORKLOAD narrows it to one
# workload. Everything lands in .bench_build/pairs/, nothing in benchmark/;
# the parent's source is a `git archive` there, so no worktree is left
# registered, and it is deleted as soon as the parent is built: a second
# source tree is what `grep -r` and editors find first.
#
#	make bench-pairs PARENT=HEAD~1 WORKLOAD=traversal_rerun
PARENT ?= HEAD
WORKLOAD ?= all
PAIRS ?= 10
SEED ?= 1
bench-pairs:
	@set -e; b=.bench_build/pairs; rm -rf $$b; mkdir -p $$b/src; \
	git archive $(PARENT) | tar -x -C $$b/src; \
	(cd $$b/src && $(GO) build -o ../parent ./benchmark); rm -rf $$b/src; \
	$(GO) build -o $$b/change ./benchmark; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			echo "# pair $$i: $$side"; \
			$$b/$$side -workload $(WORKLOAD) -seed $(SEED) -out $$b/$$side.jsonl > $$b/last.log || { cat $$b/last.log; exit 1; }; \
			grep -E '^[a-z_]+ +tasks_per_s' $$b/last.log; \
		done; \
	done; \
	$$b/change -compare $$b/parent.jsonl $$b/change.jsonl

# cover runs the full suite with atomic-mode coverage and prints the
# per-function summary; coverage.out feeds `go tool cover -html`.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -20

# fuzz runs the fuzzers on top of their committed corpora: the
# work-stealing deque fuzzer (sequential model check + concurrent
# exactly-once), the schedule fuzzer (random graph × fault plan ×
# seed-permuted interleaving under the deterministic simulation
# executor, internal/sim) and the pipeline schedule fuzzer (pipe row
# shape × lines × deferral pattern × interleaving). Override FUZZTIME
# for longer campaigns.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDeque$$' -fuzztime $(FUZZTIME) ./internal/wsq/
	$(GO) test -run '^$$' -fuzz '^FuzzSchedule$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineSchedule$$' -fuzztime $(FUZZTIME) ./internal/sim/
