GO ?= go
FUZZTIME ?= 10s
# The CI bench gate: one pass over the generation, codec, read and
# analysis hot paths, checked against bench/BENCH_baseline.json (3x
# tripwire on PRs; the nightly run re-gates the same set at 1.3x with
# real -benchtime sampling). The PR tripwire runs each benchmark once
# (the analyzer Observe benchmarks feed a fresh analyzer a whole
# fixture per op, so one op takes milliseconds). BenchmarkAnalyzerQueries
# times the first queries after a feed, which count IPCentric's prefix
# populations and Prevalence's day, ASN and country users, so the PR
# tripwire trips when query time regresses past 3x and the nightly gate
# when it drifts past 1.3x.
# BenchmarkPaperAll gates the whole reproduction: every experiment of
# userv6.Experiments registered on one Paper at 8,000 users, one
# generation pass and every result read, as `userv6 all` runs them.
# One op takes 3-4.5 s on two vCPUs, most of the PR tripwire's time.
# It also outlasts the nightly -benchtime, which would then time one
# cold op against the 1.3x ratio, so NIGHTLY_GATE leaves it out and the
# nightly run times it apart: the mean of 3 ops after a warm-up op.
BENCH_1X = BenchmarkGenerateWeek|BenchmarkGenerateDay|BenchmarkWriterV2|BenchmarkReaderV2|BenchmarkWriterV2LZ|BenchmarkReaderV2LZ|BenchmarkWriterV2Delta|BenchmarkReaderV2Delta|BenchmarkBlockReaderStrict|BenchmarkBlockReaderStrictLZ|BenchmarkBlockReaderStrictDelta|BenchmarkBlockReaderTolerant|BenchmarkBlockReaderTolerantLZ|BenchmarkBlockReaderTolerantDelta|BenchmarkWriterV2Auto|BenchmarkAnalyzeSequential|BenchmarkAnalyzeFused|BenchmarkAnalyzeManifest|BenchmarkAnalyzeMergeAnalyze|BenchmarkUserCentricObserve|BenchmarkIPCentricObserve|BenchmarkAnalyzerQueries|BenchmarkPaperAll
BENCH_GATE = ^($(BENCH_1X))$$
BENCH_PKGS = . ./internal/telemetry ./internal/core
NIGHTLY_BENCHTIME = 2s
NIGHTLY_GATE = ^($(subst |BenchmarkPaperAll,,$(BENCH_1X)))$$
FUZZ_TARGETS = \
	./internal/telemetry:FuzzReader \
	./internal/telemetry:FuzzSalvage \
	./internal/telemetry:FuzzLZRoundTrip \
	./internal/telemetry:FuzzLZDecode \
	./internal/telemetry:FuzzDeltaRoundTrip \
	./internal/telemetry:FuzzDeltaDecode \
	./internal/telemetry:FuzzLZDecodeMatchesReference \
	./internal/telemetry:FuzzDeltaDecodeMatchesReference \
	./internal/telemetry:FuzzWriterPolicyMatchesReference \
	./internal/telemetry:FuzzCoalesce \
	./internal/dataset:FuzzDatasetOpen \
	./internal/dataset:FuzzDatasetRoundTrip \
	./internal/dataset:FuzzMergeResume \
	./internal/core:FuzzAnalyzerOracle \
	./internal/core:FuzzKeyPool \
	./internal/core:FuzzMergeLaws \
	.:FuzzAnalyzeParity

.PHONY: all build vet fmt-check lint test race faults fused-race fuzz-smoke bench-check bench-smoke bench-baseline ratio-gate snapshot-check ci clean

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
# the merge's read-retry, output-write-error and cancellation tests,
# its resumed reads (parts torn at header, frame-header, payload and
# last-byte offsets must still merge byte-identical), the failures
# a resumed read must not hide (a fault that never clears, a part
# changed or gone between attempts, a missing part), the merge against
# its per-record reference at GOMAXPROCS 1, 2 and 4 (stored records
# written as bytes, blocks encoded concurrently), an output write
# failing under concurrent encoding, which must leave no goroutine, and
# a `userv6gen gen` whose writes keep failing, which must exit 1, report
# how often the failpoint fired, and leave a .tmp that `gen -resume`
# finishes byte-identical, and a `gen -resume` whose read of that .tmp
# fails, which must exit 1 naming it and leave it for the next resume.
# The TestResume and TestShardedResume families include resumes that are
# themselves interrupted (a crash mid-copy, at the aside rename or
# before the aside file is removed, a read error or a cancellation
# mid-copy) and then resumed again, under every codec, and a resume of
# a complete file whose allocation must not grow with the file.
# FAULTS_FLAGS=-short subsamples the truncation sweeps for the PR gate;
# nightly runs them full.
FAULTS_FLAGS ?=
faults:
	$(GO) test -race $(FAULTS_FLAGS) ./internal/faultio ./internal/retry
	$(GO) test -race $(FAULTS_FLAGS) -run 'TestShardedResume|TestResume|TestMergeRetriesTransientIO|TestMergeOutputWriteFault|TestMergeCtxCancelled|TestMergeResumeFailures|FuzzMergeResume|TestMergeMatchesRecordWrites|TestMergeWriteFaultStopsGoroutines|TestGenWriteFailureLeavesTmp|TestGenResumeReadFailureKeepsSource' . ./internal/dataset ./cmd/userv6gen

# Analysis race gate: the decode+analyze path (worker-local replicas,
# all default analyzers) at one worker and at several, failed strict
# reads that must leave the primaries empty (a corrupt last block at one
# worker, a manifest part swapped for another valid part), tolerant
# reads of a manifest part whose block, header or stream signature is
# damaged or that is torn inside its header, which must equal a
# tolerant merge's records and coverage at one worker and at several, the
# ForEachWorker reader primitives, direct manifest analysis (shared
# replicas fanned out across parts), the analyze-parity fuzz seeds (one
# per codec and shape, against the in-memory feed), AnalyzerSet.Fold's
# concurrent per-registration folds, the analyzers against the
# independent oracle on sequential and folded feeds, the key-pool unit
# tests (the chunked storage every default analyzer keeps its state
# in), Actioning against its two-phase reference and, over a week, against
# the blocklist and rate-limit simulators it replaced, on shuffled and
# folded feeds, RequestLoad against the request limiter it replaced and
# IPNovelty's rule on shuffled and folded feeds, every registration's
# Merge laws (commutative, associative, empty replica as identity) and
# split laws (a sighting's requests split across records, and coalesced
# in blocks, answer alike), and IPCentric's cached prefix populations,
# which every added entry and every Merge must drop, under the race
# detector.
# FAULTS_FLAGS conventions apply: -short for the PR lane, full sweep
# nightly.
fused-race:
	$(GO) test -race $(FAULTS_FLAGS) -run 'TestAnalyzeDatasetFused|TestForEachWorker|TestParallelReader|TestAnalyzeSourceParityMatrix|FuzzAnalyzeParity|TestAnalyzeManifestTolerantCorruptPart|TestAnalyzeManifestTolerantDamagedPart|TestAnalyzeStrictOneWorkerCorruptLastBlock|TestAnalyzeManifestStrictSwappedPart' . ./internal/dataset
	$(GO) test -race $(FAULTS_FLAGS) -run 'TestFullSetCommutative|TestPipelineMatchesSequential|TestFold|TestAnalyzersMatchOracle|TestKeyPool|TestActioningCommutativeFold|TestActioningMatchesReferenceSims|TestRequestLoadMatchesReference|TestIPNoveltyFlags|TestMergeLaws|TestIPCentricQueryBetweenFeeds' ./internal/core

# The benchmark (bench/userv6bench) is a Go module of its own, so the
# root build and test never compile it. It calls the analysis and merge
# entry points (PlanSource, ExecutePlan, dataset.Open, OpenParallel,
# MergeOptions, ...); vetting and testing it here catches a change that
# breaks it.
bench-check:
	cd bench/userv6bench && $(GO) vet ./... && $(GO) test ./...

# Short native-fuzz smoke over every decoder fuzz target, the encoder
# and decoder differentials against the reference encoders and
# decoders, merge reads resumed after faults at fuzzed offsets, the
# analyzer oracle, the key-pool differential against a map reference,
# the Merge and split laws, block coalescing against a map reference,
# and stored datasets analyzed against the same records fed in memory:
# catches panics, typed-error regressions, stored bytes
# that depart from the reference writer, decoded bytes or failures that
# depart from the reference decoders, a resumed merge that departs from
# the single-writer file, analyzer answers that depart from the oracle,
# key lists that depart from their reference, folds that depend on
# order or split, coalescing that loses or moves requests, and an
# analysis whose answer depends on codec, shape, workers or read mode,
# without a long campaign.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$fn ($$pkg, $(FUZZTIME))"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$fn$$" -fuzztime=$(FUZZTIME); \
	done

# Benchmark smoke: catches panics outright and gates ns/op against the
# checked-in baseline (order-of-magnitude tripwire, not a profiler).
# Each benchmark runs one pass. Writes BENCH_results.json for the CI
# artifact.
BENCH_SMOKE_RUN = $(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchtime=1x $(BENCH_PKGS) 2>&1 | tee bench-smoke.txt

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

# Reproduction gate: regenerate `userv6 -users 30000 all` at seed 1
# and compare it byte for byte with calibration_snapshot.txt, the
# measured column EXPERIMENTS.md cites (about half a minute on two
# cores). The 1,500-user goldens under cmd/userv6/testdata pin the same
# output at a scale `go test` can afford.
snapshot-check:
	$(GO) run ./cmd/userv6 -users 30000 all | cmp - calibration_snapshot.txt

# Nightly benchmark gate: the same benchmark set with real sampling
# (-benchtime=$(NIGHTLY_BENCHTIME), BenchmarkPaperAll over 3 ops) and
# a much tighter ratio, to catch the slow drift the 3x PR tripwire
# deliberately ignores.
NIGHTLY_RUN = $(GO) test -run '^$$' -bench '$(NIGHTLY_GATE)' -benchtime=$(NIGHTLY_BENCHTIME) $(BENCH_PKGS) 2>&1 | tee bench-nightly.txt; \
	$(GO) test -run '^$$' -bench '^BenchmarkPaperAll$$' -benchtime=3x . 2>&1 | tee -a bench-nightly.txt

bench-nightly:
	$(NIGHTLY_RUN)
	$(GO) run ./cmd/benchgate -in bench-nightly.txt -baseline bench/BENCH_nightly_baseline.json -out BENCH_nightly_results.json -max-ratio 1.3

# Refresh the nightly baseline (run on the hardware the nightly job
# uses; a 1.3x gate is meaningless across machine classes).
bench-nightly-baseline:
	$(NIGHTLY_RUN)
	$(GO) run ./cmd/benchgate -in bench-nightly.txt -baseline bench/BENCH_nightly_baseline.json -out BENCH_nightly_results.json -max-ratio 1.3 -update

ci: fmt-check vet lint build race faults fused-race bench-check fuzz-smoke bench-smoke ratio-gate snapshot-check

clean:
	$(GO) clean ./...
	rm -rf testdata/fuzz internal/telemetry/testdata/fuzz internal/dataset/testdata/fuzz internal/core/testdata/fuzz
	rm -f bench-smoke.txt BENCH_results.json bench-nightly.txt BENCH_nightly_results.json
