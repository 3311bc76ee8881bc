# Developer entry points; CI (.github/workflows/ci.yml) runs `make check`
# plus the `make bench-smoke` job.

GO ?= go

.PHONY: build test race vet check prop bench bench-smoke pages-guard bench-baseline bench-new benchstat bench-grid scal serve smoke-server metrics-smoke journal-smoke mutate-smoke crash-smoke slices-guard cpu-matrix

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector run over the whole tree — the parallel engine must stay
# race-clean. -short skips wall-clock speedup assertions.
race:
	$(GO) test -race -short ./...

check: build vet race slices-guard cpu-matrix prop metrics-smoke journal-smoke mutate-smoke crash-smoke

# The -run regexes of the test slices below. slices-guard checks that
# every |-alternative of each still matches a test name, so renaming a
# test cannot silently drop it from its slice.
METRICS_RUN = TestTrace|TestMetrics|TestStreamTrace|TestExplainDoesNotExecute|TestSlowQueryLog|TestRequestLog|TestStatsReadsMetrics
JOURNAL_RUN = TestJournal|TestDebugQueries|TestStatsHistory|TestExplainObserved|TestChromeTrace|TestRuntimeCollector|TestRingWraparound|TestWindow|TestStartStop
MUTATE_RUN = TestMutate|TestSubscribeChurn|TestCacheInvalidationExactNames|TestInstrumentPanicRecovery
PROP_RUN = TestEquivalenceSeeds|TestInvariantSeeds|TestGeneratorShape|TestFlatPagedEquivalence|TestFlatStatsEquivalenceParallel|TestPlanSelection|TestIngestComputesSkew|TestConcurrentAutoAndGridJoins|TestDeltaSeeds|TestMutateSnapshotIsolationRace
CRASH_RUN = TestCrashMatrix|TestDurable|TestCheckpoint|TestWAL|TestFaultFS|TestPageFile|TestFsck|TestOpen|FuzzWALRecover|FuzzPageFileRestore
PAGES_RUN = TestFig7PagesMatchBaseline|TestFlatModeZeroPages
CPU_RUN = TestPlanSelection|TestFlatStatsEquivalenceParallel

slices-guard:
	./scripts/slices_guard.sh 'prop=$(PROP_RUN)' 'metrics-smoke=$(METRICS_RUN)' \
		'journal-smoke=$(JOURNAL_RUN)' 'mutate-smoke=$(MUTATE_RUN)' \
		'crash-smoke=$(CRASH_RUN)' 'pages-guard=$(PAGES_RUN)' \
		'cpu-matrix=$(CPU_RUN)'

# Core-count matrix: the tests whose paths branch on GOMAXPROCS (the
# planner's autoWorkers, the parallel partitioner, per-worker buffer
# forks) run at 1, 2 and 4 procs, so every branch runs on every host,
# whatever its core count. -short on the parallel package skips only its
# wall-clock speedup assert, which cannot hold at one proc.
cpu-matrix:
	$(GO) test -count 1 -cpu 1,2,4 -run '$(CPU_RUN)' \
		./internal/service/... ./internal/check/...
	$(GO) test -count 1 -short -cpu 1,2,4 ./internal/parallel/...

# Observability slice under the race detector: the obs metric/trace
# primitives (concurrent scrape-while-mutate, shared-trace Add) and the
# service-level reconciliation tests (trace sums == response stats,
# /metrics deltas == per-query stats, /stats == /metrics, explain,
# slow-query log).
metrics-smoke:
	$(GO) test -race ./internal/obs/...
	$(GO) test -race -run '$(METRICS_RUN)' ./internal/service/...

# Introspection slice under the race detector: journal ring wraparound and
# slowest-K retention (concurrent joins included), stats reconciliation
# (journal record == response == /metrics deltas), JSONL sink round-trip,
# Chrome trace export golden fields, metrics-history sampling and window
# math, and the /debug/queries + /stats/history endpoints.
journal-smoke:
	$(GO) test -race -run '$(JOURNAL_RUN)' \
		./internal/obs/... ./internal/service/...

# Mutation slice under the race detector: the live-dataset surface —
# mutation batches vs the brute-force oracle across every algorithm,
# snapshot isolation (joins racing point mutations always see one clean
# version), subscription churn reconciliation (baseline + events == full
# recompute), the field-exact cache invalidation regression, and the
# panic-recovery middleware.
mutate-smoke:
	$(GO) test -race -run '$(MUTATE_RUN)' \
		./internal/service/...

# Property-based equivalence harness (internal/check): the fixed seed
# matrix holding NM ≡ PM ≡ FM ≡ parallel ≡ grid ≡ brute, the delta
# maintenance oracle (incremental pair churn ≡ full recompute across the
# same seed matrix × insert/delete/update batches), plus the planner's
# algo-selection tests, under the race detector with a coverage profile
# over the whole module (CI uploads coverage.out).
prop:
	$(GO) test -race -coverprofile=coverage.out -coverpkg=./... \
		-run '$(PROP_RUN)' \
		./internal/check/... ./internal/service/...

bench:
	$(GO) test -bench . -benchmem -run xxx ./...

# One iteration of every benchmark — catches bit-rot in bench code without
# paying for stable numbers. CI runs this on every push.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

# Pages guard: recompute the Fig. 7 joins and assert pages/op is
# byte-identical to the counts pinned in pages_guard_test.go for NM/PM/FM
# (6279/9788/12810), and that
# flat-storage NM emits the byte-identical pair sequence with zero page
# accesses. The paper's I/O metric must never move under CPU-side
# optimization (pooling, flat arenas, geometric fast paths); CI fails the
# build if it does.
pages-guard:
	$(GO) test -run '$(PAGES_RUN)' -count 1 .

# benchstat workflow: record a baseline on the base commit, re-run on your
# branch, compare. BENCH_FILTER narrows the set; COUNT=10 gives benchstat
# enough samples for significance tests.
BENCH_FILTER ?= BenchmarkFig7_|BenchmarkParallel_SpeedupCurve
COUNT ?= 10
bench-baseline:
	$(GO) test -run xxx -bench '$(BENCH_FILTER)' -benchmem -count $(COUNT) . | tee bench-baseline.txt
bench-new:
	$(GO) test -run xxx -bench '$(BENCH_FILTER)' -benchmem -count $(COUNT) . | tee bench-new.txt
benchstat:
	@command -v benchstat >/dev/null || { \
		echo "benchstat not installed: go install golang.org/x/perf/cmd/benchstat@latest"; exit 1; }
	benchstat bench-baseline.txt bench-new.txt

# Grid-vs-NM crossover table at reduced scale.
bench-grid:
	$(GO) run ./cmd/cijbench -exp grid -scale 0.2

# Parallel scalability table at reduced scale.
scal:
	$(GO) run ./cmd/cijbench -exp scal -scale 0.1

# Run the CIJ query service locally with two demo datasets preloaded
# (README "Serving CIJ" has curl examples against it).
serve:
	$(GO) run ./cmd/cijserver -addr :8080 -preload "demo_p=uniform:20000,demo_q=clustered:20000"

# End-to-end server smoke: start cijserver, ingest, join, stream, assert.
# CI runs this on every push.
smoke-server:
	./scripts/smoke_server.sh

# Durability smoke: the in-process crash matrix (every fault point × every
# crash mode, under the race detector), the WAL and page-file restore fuzz
# targets' seed corpora, plus the out-of-process one — start
# cijserver -data-dir, kill -9 it mid-mutation-stream, fsck, restart, and
# assert the recovered join matches the in-memory grid oracle and the
# SIGTERM cycle round-trips the clean-shutdown marker. Part of `make
# check`; CI runs it on every push.
crash-smoke:
	$(GO) test -race -run '$(CRASH_RUN)' \
		./internal/check/... ./internal/service/... ./internal/storage/... ./internal/rtree/...
	./scripts/crash_smoke.sh
