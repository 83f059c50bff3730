GO ?= go
FUZZTIME ?= 10s
# The CI bench gate: one pass over the generation, codec, trie, and
# analysis hot paths, checked against bench/BENCH_baseline.json (3x
# tripwire on PRs; the nightly run re-gates the same set at 1.3x with
# real -benchtime sampling).
BENCH_GATE = ^(BenchmarkGenerateWeek|BenchmarkGenerateDay|BenchmarkWriterV2|BenchmarkReaderV2|BenchmarkWriterV2LZ|BenchmarkReaderV2LZ|BenchmarkWriterV2Delta|BenchmarkReaderV2Delta|BenchmarkTrieUpdate|BenchmarkTrieLookup|BenchmarkRollup|BenchmarkUserCentricObserve|BenchmarkIPCentricObserve|BenchmarkAnalyzeSequential|BenchmarkAnalyzeFused|BenchmarkAnalyzeManifest|BenchmarkAnalyzeMergeAnalyze)$$
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
	./internal/dataset:FuzzDatasetRoundTrip

.PHONY: all build vet fmt-check lint test race faults fused-race fuzz-smoke bench-smoke bench-baseline ratio-gate ci clean

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
# tests plus the crash sweeps — sharded exports killed at injected
# faults (every frame boundary of every part in the full sweep, every
# manifest rewrite) must resume byte-identical. FAULTS_FLAGS=-short
# subsamples the truncation sweep for the PR gate; nightly runs it full.
FAULTS_FLAGS ?=
faults:
	$(GO) test -race $(FAULTS_FLAGS) ./internal/faultio ./internal/retry
	$(GO) test -race $(FAULTS_FLAGS) -run 'TestShardedResume|TestMergeRetriesTransientIO|TestMergeCtxCancelled' . ./internal/dataset

# Analysis race gate: the fused decode+analyze path (worker-local
# replicas, all default analyzers), the sequential one-worker path, the
# ForEachWorker reader primitives, and direct manifest analysis (shared
# replicas fanned out across parts) under the race detector.
# FAULTS_FLAGS conventions apply: -short for the PR lane, full sweep
# nightly.
fused-race:
	$(GO) test -race $(FAULTS_FLAGS) -run 'TestAnalyzeDatasetFused|TestForEachWorker|TestParallelReader|TestAnalyzeSourceParityMatrix|TestAnalyzeManifestTolerantCorruptPart' . ./internal/dataset

# Short native-fuzz smoke over every decoder fuzz target: catches
# panics and typed-error regressions without a long campaign.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$fn ($$pkg, $(FUZZTIME))"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$fn$$" -fuzztime=$(FUZZTIME); \
	done

# Single-pass benchmark smoke: catches panics outright and gates ns/op
# against the checked-in baseline (order-of-magnitude tripwire, not a
# profiler). Writes BENCH_results.json for the CI artifact.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchtime=1x $(BENCH_PKGS) 2>&1 | tee bench-smoke.txt
	$(GO) run ./cmd/benchgate -in bench-smoke.txt -baseline bench/BENCH_baseline.json -out BENCH_results.json

# Refresh the checked-in baseline after intentional perf changes.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchtime=1x $(BENCH_PKGS) 2>&1 | tee bench-smoke.txt
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

ci: fmt-check vet lint build race faults fused-race fuzz-smoke bench-smoke ratio-gate

clean:
	$(GO) clean ./...
	rm -rf internal/telemetry/testdata/fuzz internal/dataset/testdata/fuzz
	rm -f bench-smoke.txt BENCH_results.json bench-nightly.txt BENCH_nightly_results.json
