# Tier-1 flow: build + vet + tests, plus a short-mode race pass over the
# packages with real concurrency (engine cache, HTTP server, parallel
# SpGEMM, metrics registry).
.PHONY: all build vet test race race-full check obs-selftest chaos properties bench-json bench-check staticcheck govulncheck loc contract

all: check

build:
	go build ./...

vet:
	go vet ./...

# Deeper static analysis when a checker is on PATH; a plain `go vet` box
# (like CI bootstrap images) skips it rather than failing the build.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "staticcheck/golangci-lint not installed; skipping"; \
	fi

# Known-vulnerability scan when the scanner is on PATH; offline boxes skip
# it rather than failing the build (same gating as staticcheck).
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

test:
	go test ./...

# Short-mode race run over the concurrent packages; part of `make check`.
race:
	go test -race -short ./internal/core ./internal/relevance ./internal/server ./internal/sparse ./internal/obs ./internal/router ./internal/embed

# Full race run over everything; slower, run before cutting a release.
race-full:
	go test -race ./...

# Sanity-check the default metric histogram buckets (finite, strictly
# increasing, non-empty) and the exposition format; part of `make check`.
obs-selftest:
	go test -run 'TestSelfTest|TestValidateBuckets|TestHandlerServesValidExposition' ./internal/obs

# Fault-injection recovery matrix under the race detector: kill-mid-write
# at every byte offset, ENOSPC, torn renames, failed fsyncs, at-rest
# corruption sweeps, WAL torn-tail / duplicate-replay / crash-window
# recovery, hot-reload with concurrent queries and mutations, the state
# transfer (torn and moved /v1/admin/state streams, warm joins, old files
# booting), and the replication suite (follower convergence/resync, the
# seeded follower schedules, primary kill mid-write-stream, divergence
# detection). The reload and follower tests, and Close stopping the rebuild
# a reload or a resync started, run three times: they were the flaky ones (a
# goroutine outliving its server, a tail read shedding a write), so they gate
# on repetition. Short mode keeps the corruption sweeps seeded-sample-sized and
# the follower schedules at 32 seeds; part of `make check`.
chaos:
	go test -race -short ./internal/snapshot ./internal/chaos ./internal/wal
	go test -race -short -run 'TestHotReload|TestWarmStart|TestWarmFromState|TestFetchStateTornStream|TestStateResume|TestMutate|TestCompaction|TestAppliedKey' ./internal/server
	go test -race -short -count=3 -run 'TestReload|TestFollow|TestCloseStopsWarmUp' ./internal/server
	go test -race -short -run 'TestClusterKillMidBatch|TestRelevancePartialFailure|TestFailover|TestFollow|TestDivergence' ./internal/router

# Paper-property suite under the race detector: randomized symmetry /
# self-maximum / semi-metric / indiscernibles checks (Properties 3-5)
# plus the differential top-k cross-checks, run twice so
# per-run seeding shenanigans can't hide order dependence; part of
# `make check`. The pattern picks up every TestDifferential* as it is
# added — the reachable-rows scan's (TestDifferentialTopKReachableRows,
# TestDifferentialTopKRentOrBuy), the odd-path suite's
# (TestDifferentialOddPaths*) and the per-query normalization flag's
# (TestDifferentialRawPerQuery) needed no change here, nor in `make race`,
# whose package list already covers core and server. The write path's
# row-splicing Apply rides along: TestApplyDifferential and FuzzApply's
# seed corpus hold every relation's CSR and its kept transpose to sparse.New,
# the fingerprint to a from-scratch rebuild's and Dirty to the cells that
# changed, and the other TestApply* tests cover node growth, sharing and
# rejection. The fingerprint's section trees ride along too: TestFingerprint*
# holds them to the one-stream definition over random Apply chains and
# fingerprints one graph from several goroutines at once.
properties:
	go test -race -count=2 -run 'TestPropertyRandom|TestDifferential' ./internal/core
	go test -race -count=2 -run 'TestApply|FuzzApply|TestFingerprint' ./internal/hin

# Non-blank, non-test Go lines per internal package and per command, with a
# total, so "this PR made the package smaller" is checkable in review.
loc:
	@total=0; for d in internal/*/ cmd/*/; do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -c .); \
		total=$$((total + n)); \
		printf '%6d %s\n' "$$n" "$$d"; \
	done; printf '%6d total\n' "$$total"

# The wire contract is declared once (internal/api). Fails when a JSON tag
# that must be unique is declared in more than one non-test file outside
# bench/ (which keeps private decoders on purpose: it is the outside
# observer), when a helper the one-pipeline refactor, the odd-path collapse
# (middleEdgeTransitions, edgeU: odd paths meet on the middle relation, not
# on an edge-object type) or the one-engine generation (WithPruning,
# pruneEps: engines build exact chains only; addCacheInfo: no second engine
# to sum) or the batch scheduler's cross-group side planner (planBatchSides,
# buildFamily, sideFamily: a group builds its halves with the solo operators)
# or the one state transfer (FetchSnapshot, handleGraphFetch, handleSnapshot,
# ImportSnapshot: a replica fetches graph, wal_seq and path list from one
# GET /v1/admin/state, and the router does not import internal/snapshot)
# or stored chains (ImportChains, importSnapshot, RunSnapshotSaver,
# snapshot-save-interval, snapAgeMS: every warm-up rebuilds the path list,
# nothing is saved on a timer, and the router ranks no snapshot age)
# or the column scan of an adjacency (TransposeRows: inverse transition rows
# are read off the graph's kept transpose) or served PathSim's own chain
# builder and caches (countMatrix, halfCountMatrix, countDiagonal: a pair
# meets two half-count vectors, a top-k builds its half per call with MulCtx,
# and both divide by the one squares sum, so nothing outside the engine's
# cache bound holds a matrix) or the second weighted-path combine
# (NewCombined: learned weights score through relevance's ensemble) or the
# context-blind product driver (MulAuto: MulCtx is the same driver and can be
# canceled) or the graph carver only tests reached (Subgraph: nothing
# carves a graph) deleted comes back by name, or when a non-test file outside
# internal/snapshot and bench/ calls the chains codec (EncodeChains,
# DecodeChains: only the benchmarks price stored chains), or when the deleted
# approximate top-k plane does (its plan name, its knobs, an import of
# internal/embed — which bench/probes.go alone keeps alive until a
# [benchmark] PR deletes both), or when the deleted Monte Carlo serving path
# does (its plan, the engine estimators, the degrade option and flag, the
# planner's deadline constant, the degrade helpers, the "approximate" wire
# fields: every answer is exact or a 504; the §4.6 estimator lives in
# internal/exp as PairSampler), or when the CLI grows its own query path
# again (cmd/hetesim importing internal/baseline or internal/rank: its local
# modes are requests to an in-process server.Handler(), answered and ranked
# there), or when a command links the fault injectors (any cmd/ binary
# depending on internal/chaos: the in-process transport is router.Inproc);
# part of `make check`.
contract:
	@fail=0; \
	for tag in shared_queries naive_row_steps source_type replication_lag_seconds; do \
		files=$$(grep -rlE "json:\"$$tag[\",]" --include='*.go' . | grep -v '_test\.go$$' | grep -v '^\./bench/'); \
		if [ "$$(printf '%s\n' "$$files" | grep -c .)" -ne 1 ]; then \
			echo "contract: json tag \"$$tag\" must be declared in exactly one file, found in: $$(echo $$files)"; fail=1; \
		fi; \
	done; \
	for name in degradedPair degradedTopK strconvUint io2 middleEdgeTransitions edgeU WithPruning pruneEps addCacheInfo planBatchSides buildFamily sideFamily FetchSnapshot handleGraphFetch handleSnapshot ImportSnapshot ImportChains importSnapshot RunSnapshotSaver snapshot-save-interval snapAgeMS TransposeRows countMatrix halfCountMatrix countDiagonal NewCombined MulAuto Subgraph; do \
		if grep -rnwE "$$name" --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./bench/'; then \
			echo "contract: deleted helper $$name is back"; fail=1; \
		fi; \
	done; \
	for name in EncodeChains DecodeChains; do \
		if grep -rnwE "$$name" --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(bench|internal/snapshot)/'; then \
			echo "contract: $$name called outside internal/snapshot and bench/ (chains are rebuilt, not stored)"; fail=1; \
		fi; \
	done; \
	if go list -deps ./internal/router | grep -qx 'hetesim/internal/snapshot'; then \
		echo "contract: internal/router imports internal/snapshot again"; fail=1; \
	fi; \
	for name in topk-approx error_budget ErrorBudget EmbedRank '"hetesim/internal/embed"'; do \
		if grep -rnF --include='*.go' -- "$$name" . | grep -v '_test\.go:' | grep -vE '^\./(bench|internal/embed)/'; then \
			echo "contract: deleted approximate top-k plane is back ($$name)"; fail=1; \
		fi; \
	done; \
	for name in PlanMonteCarlo PairMonteCarlo SingleSourceMonteCarlo WithDegradedTopK DegradeWalks degradeWalks degrade-walks planFlopsPerSecond missedDecision degradeGrace 'json:"approximate'; do \
		if grep -rnF --include='*.go' -- "$$name" . | grep -v '_test\.go:' | grep -v '^\./bench/'; then \
			echo "contract: deleted Monte Carlo serving path is back ($$name)"; fail=1; \
		fi; \
	done; \
	for pkg in baseline rank; do \
		if go list -f '{{join .Imports "\n"}}' ./cmd/hetesim | grep -qx "hetesim/internal/$$pkg"; then \
			echo "contract: cmd/hetesim imports internal/$$pkg again (local modes go through server.Handler())"; fail=1; \
		fi; \
	done; \
	for cmd in $$(go list ./cmd/...); do \
		if go list -deps $$cmd | grep -qx 'hetesim/internal/chaos'; then \
			echo "contract: $$cmd links internal/chaos"; fail=1; \
		fi; \
	done; \
	[ $$fail -eq 0 ] && echo "contract: ok"

check: vet staticcheck govulncheck contract build test race obs-selftest chaos properties

# Regenerate the committed benchmark baseline: every paper-table and
# figure benchmark, the snapshot warm-vs-cold boot comparison, the
# batch scheduler's sequential-vs-batched amortization run, the
# query-optimizer auto-vs-forced plan comparison, the incremental
# mutation apply-vs-rematerialize comparison, the auto-relevance
# ensemble-vs-solo-paths comparison, and the warm exact top-k scan at its
# sparse best case (BenchmarkAblationTopKSearch) and dense worst case
# (BenchmarkTopKDenseScan), the cold top-k on both sides of the
# rent-or-buy rule (BenchmarkTopKColdReachable) and on odd paths
# (BenchmarkTopKColdOdd; both matched by the BenchmarkTopK pattern), and
# paper-scale graph construction (BenchmarkGraphBuild: generating the ACM
# network, reading its JSON file), with allocation stats, as JSON — followed by internal/sparse's kernel
# benchmark (BenchmarkSpGEMM, serial and parallel), so a kernel slowdown
# shows in the committed file beside the end-to-end rows. Every benchmark
# is recorded at GOMAXPROCS=1 and at the box's core count ("procs" in each
# row), so the parallel SpGEMM path has a baseline too.
NPROC := $(shell getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
bench-json:
	{ go test -run '^$$' -bench 'BenchmarkTable|BenchmarkFig|BenchmarkSnapshot|BenchmarkBatch|BenchmarkPlan|BenchmarkIncremental|BenchmarkRelevance|BenchmarkTopK|BenchmarkAblationTopKSearch|BenchmarkGraphBuild' -benchmem -cpu 1,$(NPROC) . && \
	  go test -run '^$$' -bench 'BenchmarkSpGEMM' -benchmem -cpu 1,$(NPROC) ./internal/sparse; } | go run ./cmd/benchjson > BENCH_core.json
	@echo wrote BENCH_core.json

# End-to-end regression gate: five runs of each bench/ workload against
# bench/baseline.json under BENCHMARK.json's bounds (bench/README.md).
bench-check:
	go run ./bench -check
