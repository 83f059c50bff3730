GO ?= go
FUZZTIME ?= 10s
# The CI bench gate: one pass over the generation, codec, trie, and
# analysis hot paths, checked against bench/BENCH_baseline.json (3x
# tripwire on PRs; the nightly run re-gates the same set at 1.3x with
# real -benchtime sampling). The PR tripwire runs BENCH_1X once each
# (the trie and analyzer Observe benchmarks feed a fresh structure a
# whole fixture per op, so one op takes milliseconds); the
# sub-microsecond BENCH_MICRO benchmarks would time only warm-up at 1x,
# so they run a fixed MICRO_BENCHTIME iterations instead.
BENCH_1X = BenchmarkGenerateWeek|BenchmarkGenerateDay|BenchmarkWriterV2|BenchmarkReaderV2|BenchmarkWriterV2LZ|BenchmarkReaderV2LZ|BenchmarkWriterV2Delta|BenchmarkReaderV2Delta|BenchmarkRollup|BenchmarkAnalyzeSequential|BenchmarkAnalyzeFused|BenchmarkAnalyzeManifest|BenchmarkAnalyzeMergeAnalyze|BenchmarkTrieUpdate|BenchmarkUserCentricObserve|BenchmarkIPCentricObserve
BENCH_MICRO = BenchmarkTrieLookup
MICRO_BENCHTIME = 20000x
BENCH_GATE = ^($(BENCH_1X)|$(BENCH_MICRO))$$
BENCH_PKGS = . ./internal/telemetry ./internal/trie ./internal/core
NIGHTLY_BENCHTIME = 2s
FUZZ_TARGETS = \
	./internal/telemetry:FuzzReader \
	./internal/telemetry:FuzzSalvage \
	./internal/telemetry:FuzzLZRoundTrip \
	./internal/telemetry:FuzzLZDecode \
	./internal/telemetry:FuzzDeltaRoundTrip \
	./internal/telemetry:FuzzDeltaDecode \
	./internal/dataset:FuzzDatasetOpen \
	./internal/dataset:FuzzDatasetRoundTrip \
	./internal/core:FuzzAnalyzerOracle

.PHONY: all build vet fmt-check lint test race faults fused-race fuzz-smoke bench-check bench-smoke bench-baseline ratio-gate ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Repo-invariant static analysis (cmd/userv6vet): faultio seam
# discipline, ctx-aware sleeps, commutative-analyzer Merge contracts,
# errors.Is on sentinels, sync.Pool Get/Put balance. Exits non-zero on
# any finding; see docs/STATIC_ANALYSIS.md for the rule catalog and the
# //userv6vet:ignore suppression syntax.
lint:
	$(GO) run ./cmd/userv6vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection gate under the race detector: the retry/faultio unit
# tests plus the crash sweeps — sharded exports and single-file runs
# killed at injected faults (every frame boundary of every file in the
# full sweeps, every manifest rewrite) must resume byte-identical — and
# the merge's read-retry, output-write-error and cancellation tests.
# FAULTS_FLAGS=-short subsamples the truncation sweeps for the PR gate;
# nightly runs them full.
FAULTS_FLAGS ?=
faults:
	$(GO) test -race $(FAULTS_FLAGS) ./internal/faultio ./internal/retry
	$(GO) test -race $(FAULTS_FLAGS) -run 'TestShardedResume|TestResume|TestMergeRetriesTransientIO|TestMergeOutputWriteFault|TestMergeCtxCancelled' . ./internal/dataset

# Analysis race gate: the fused decode+analyze path (worker-local
# replicas, all default analyzers), the sequential one-worker path, the
# ForEachWorker reader primitives, direct manifest analysis (shared
# replicas fanned out across parts), AnalyzerSet.Fold's concurrent
# per-registration folds, and the analyzers against the independent
# oracle on sequential and folded feeds, under the race detector.
# FAULTS_FLAGS conventions apply: -short for the PR lane, full sweep
# nightly.
fused-race:
	$(GO) test -race $(FAULTS_FLAGS) -run 'TestAnalyzeDatasetFused|TestForEachWorker|TestParallelReader|TestAnalyzeSourceParityMatrix|TestAnalyzeManifestTolerantCorruptPart' . ./internal/dataset
	$(GO) test -race $(FAULTS_FLAGS) -run 'TestFullSetCommutative|TestPipelineMatchesSequential|TestFold|TestAnalyzersMatchOracle' ./internal/core

# The benchmark (bench/userv6bench) is a Go module of its own, so the
# root build and test never compile it. It calls the analysis and merge
# entry points (PlanSource, ExecutePlan, dataset.Open, OpenParallel,
# MergeOptions, ...); vetting and testing it here catches a change that
# breaks it.
bench-check:
	cd bench/userv6bench && $(GO) vet ./... && $(GO) test ./...

# Short native-fuzz smoke over every decoder fuzz target and the
# analyzer oracle: catches panics, typed-error regressions and analyzer
# answers that depart from the oracle without a long campaign.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$fn ($$pkg, $(FUZZTIME))"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$fn$$" -fuzztime=$(FUZZTIME); \
	done

# Benchmark smoke: catches panics outright and gates ns/op against the
# checked-in baseline (order-of-magnitude tripwire, not a profiler).
# BENCH_1X runs one pass each, BENCH_MICRO a fixed MICRO_BENCHTIME;
# both land in the one file benchgate reads. Writes BENCH_results.json
# for the CI artifact.
BENCH_SMOKE_RUN = { $(GO) test -run '^$$' -bench '^($(BENCH_1X))$$' -benchtime=1x $(BENCH_PKGS); \
	$(GO) test -run '^$$' -bench '^($(BENCH_MICRO))$$' -benchtime=$(MICRO_BENCHTIME) $(BENCH_PKGS); } 2>&1 | tee bench-smoke.txt

bench-smoke:
	$(BENCH_SMOKE_RUN)
	$(GO) run ./cmd/benchgate -in bench-smoke.txt -baseline bench/BENCH_baseline.json -out BENCH_results.json

# Refresh the checked-in baseline after intentional perf changes.
bench-baseline:
	$(BENCH_SMOKE_RUN)
	$(GO) run ./cmd/benchgate -in bench-smoke.txt -baseline bench/BENCH_baseline.json -out BENCH_results.json -update

# Compression-ratio gate, run next to the bench smoke: on the fixture
# workload the delta policy must store no more bytes than lz and auto
# must beat lz strictly — the delta codec's measured success criterion.
ratio-gate:
	$(GO) test ./internal/dataset -run '^TestCompressionRatioGate$$' -v

# Nightly benchmark gate: the same benchmark set with real sampling
# (-benchtime=$(NIGHTLY_BENCHTIME)) and a much tighter ratio, to catch
# the slow drift the 3x PR tripwire deliberately ignores.
bench-nightly:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchtime=$(NIGHTLY_BENCHTIME) $(BENCH_PKGS) 2>&1 | tee bench-nightly.txt
	$(GO) run ./cmd/benchgate -in bench-nightly.txt -baseline bench/BENCH_nightly_baseline.json -out BENCH_nightly_results.json -max-ratio 1.3

# Refresh the nightly baseline (run on the hardware the nightly job
# uses; a 1.3x gate is meaningless across machine classes).
bench-nightly-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchtime=$(NIGHTLY_BENCHTIME) $(BENCH_PKGS) 2>&1 | tee bench-nightly.txt
	$(GO) run ./cmd/benchgate -in bench-nightly.txt -baseline bench/BENCH_nightly_baseline.json -out BENCH_nightly_results.json -max-ratio 1.3 -update

ci: fmt-check vet lint build race faults fused-race bench-check fuzz-smoke bench-smoke ratio-gate

clean:
	$(GO) clean ./...
	rm -rf internal/telemetry/testdata/fuzz internal/dataset/testdata/fuzz internal/core/testdata/fuzz
	rm -f bench-smoke.txt BENCH_results.json bench-nightly.txt BENCH_nightly_results.json
