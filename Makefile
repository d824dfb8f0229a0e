# Tier-1: the must-stay-green gate for every PR.
tier1:
	go build ./... && go test ./...

# verify: tier-1 plus go vet, the project linter, the optimizer gate, and
# the race detector over the whole module — which is where the write-path
# stress test (internal/core TestWritePathStress: 2 writers x 2 readers x
# background flush and merge over every index kind, 2 s) earns its keep.
verify: tier1 lint optimizer
	go vet ./...
	go test -race ./...

# optimizer: the plan-quality gate — golden plan tests, hash-join and
# join-order regressions, rule idempotence, the point-lookup job shape and
# the binder (every binding kind, shadowing, correlation lists, unbound
# names), all under the race detector, as are the optimizer on/off
# equivalence corpus, the access-path suites (typed constants, LSM states,
# DELETE) and the names that nested scopes read of a grouped block.
# Regenerate drifted goldens with
# ASTERIX_UPDATE_GOLDEN=1 go test ./internal/algebricks -run TestGoldenPlans.
optimizer:
	go test -race -run 'TestGoldenPlans|TestHashJoin|TestGreedy|TestOptimizer|TestIndexSelection|TestPlanJSON|TestRule|TestJobShapes|TestBind|TestSubstituteRecomputesCorrelation' ./internal/algebricks/
	go test -race -run 'TestOptimizerOnOffEquivalence|TestOptimizerDisableRule|TestResultCarriesPlanAndRules|TestAccessPathTypedConstants|TestPrimaryKeyLSMStates|TestDeleteLocatesVictimsThroughPlan|TestUnboundNameFailsBeforeAnyJob|TestGroupKeyInNestedScopes' ./internal/core/

# lint: gofmt, then project-specific static analysis (see
# docs/STATIC_ANALYSIS.md). Any Go file outside testdata/ that gofmt -l
# lists fails the target. -stats prints per-rule finding counts and wall
# time; a stale //lint:ignore directive (suppressing nothing) fails like
# any finding. The last line is ROADMAP item 9's two numbers: the
# suppressions the engine carries and the linter's own size.
lint:
	@unformatted="$$(find . -name '*.go' ! -path '*/testdata/*' ! -path './.*' | xargs gofmt -l)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists files that are not formatted:"; echo "$$unformatted"; exit 1; fi
	go run ./cmd/asterixlint -stats ./...
	@echo "engine //lint:ignore directives (internal/ and cmd/ without the linter): $$(grep -rE --include='*.go' '^\s*//lint:ignore ' internal cmd | grep -vc '^cmd/asterixlint/'); linter non-test Go lines: $$(find cmd/asterixlint -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"

# invariants: the test suite with deep structural validators compiled in
# (see internal/check).
invariants:
	go test -tags invariants ./...

# fault-matrix: the robustness gate — crash-recovery matrix, the task
# fault point (hyracks.task.fail in error and panic mode: a typed failure,
# nothing held afterwards, and a resend that succeeds) and cancellation
# tests, the spill error-exit matrix (no run file or
# descriptor outlives a failed task), a panicking operator's typed job
# failure (grant, pins and run files given back), the WAL torn-tail suite,
# and the LSM lifecycle's flush/merge fault (on the writer's barrier and on
# the background worker), crash-orphan and validator tests over every index
# kind, and the storage-format gate (a directory of another format is
# refused and left as found), and the request boundary (a panic while
# serving a query is answered, and the next request served), with deep
# validators compiled in (see docs/ROBUSTNESS.md).
fault-matrix:
	go test -tags invariants -run 'TestCrash|TestBackgroundFault|TestWorkerStop|TestTaskFaultPoint|TestCancelMidQuery|TestSpillErrorExits|TestTaskPanic|TestRepairTail|TestTornWrite|TestWALSync|TestFlushFault|TestMergeFault|TestTieredMerge|TestValidateDetects|TestCreateIndexFailure|TestLockTimeout|TestStorageFormat|TestEnginePanic' \
		./internal/core/ ./internal/hyracks/ ./internal/txn/ ./internal/lsm/ ./internal/metadata/ ./internal/server/
	ASTERIX_FAULTS="hyracks.frame.delay:delay=1ms:times=4" go test -count=1 ./internal/hyracks/

# bench: every top-level Go benchmark once (BenchmarkIngestStall among
# them: records/s and writer stall ns/record of 20-record UPSERT
# statements at a 1 MiB component budget; BenchmarkSecondaryMaintenance:
# ns, B and allocs per record of an insert and of an overwrite that keeps or
# changes the indexed field, per index kind; BenchmarkIndexSearch: the same
# per candidate, and allocs per search, of an equality, a range and a keyword
# search, and of a spatial search of each of RTREE, ZORDER, HILBERT and GRID
# over E2-shaped points and boxes at selectivities 0.0001, 0.001 and 0.01,
# all over flushed components), plus the per-layer
# microbenchmarks of the record decoder (BenchmarkLocateFields: fields and
# whole records out of both stored forms), of the key encoder
# (BenchmarkEncodeKey: ns and bytes per key of a small integer, an integer
# beyond 2^53, a double and a string) and the leaf over them
# (BenchmarkScanLeaf), the B+tree's point search (BenchmarkSearchHot), the
# expression evaluators (BenchmarkCompiledExpr: interpreted vs. compiled), the
# SQL++ parser (BenchmarkParseUpsert: ns, allocs and ns/token of a 20-record
# ingest UPSERT)
# and the runtime (BenchmarkSortLimit, BenchmarkParallelGroupBy,
# BenchmarkExchangeWrite), and of storage maintenance
# (BenchmarkComponentBuild: ns/entry, page-writes/page and leaf-fill of the
# flush of one memory component and of a 5-way merge; BenchmarkTreeScan:
# ns/row and allocs/row of a full scan of one flushed component, and of the
# same rows still in the memory component (-memory), with primary-shaped
# and keyword-shaped keys; BenchmarkTreeUpsert: ns, B and allocs per put at
# a 1 MiB component budget, flushes included, keyword- and primary-shaped
# and an R-tree point; BenchmarkRTreeSearch: ns and allocs per search of
# 50 000 points in an R-tree's memory component) and of recovery
# (BenchmarkRecover: ns and read system calls per record redone from a
# 100 000-record log).
bench:
	go test -bench . -benchtime 1x -run NONE . ./internal/adm ./internal/algebricks ./internal/btree ./internal/hyracks ./internal/lsm ./internal/sqlpp ./internal/txn

# bench-smoke: the CI perf gate — run the experiment suite at the small
# scale, emit the structured BENCH_ci.json artifact, and diff it against
# the checked-in BENCH_1.json baseline. Timing deltas are printed only
# (shared CI hosts are noisy), but allocation counters are deterministic:
# an allocs/op or allocs/row that grows by more than half an allocation, or
# its loss, fails the job. So do the two
# numbers of a disk component's build that repeat exactly, which
# BenchmarkComponentBuild checks itself (the comparator's band cannot say
# "equal"): page-writes/page must be 1 and leaf-fill at least 0.97.
bench-smoke:
	go run ./cmd/asterixbench -scale small -out BENCH_ci.json
	go run ./cmd/asterixbench -compare BENCH_1.json -in BENCH_ci.json
	go test -run NONE -bench BenchmarkComponentBuild -benchtime 1x ./internal/lsm

# bench-repo-smoke: the repository benchmark (BENCHMARK.json, benchmark/)
# wired into the build — its own module's tests, then one seconds-long
# checked run of the point-lookup workload at the smoke scale. The real
# performance gate is `bash benchmark/run.sh` on two commits plus
# `--compare` (see README.md); this target only proves the benchmark still
# builds, runs and verifies its answers against this tree.
bench-repo-smoke:
	cd benchmark && go test ./...
	bash benchmark/run.sh --scale smoke --workload point_serve --seconds 2

# examples: run each program under examples/, the callers of the public
# asterix API; a non-zero exit of any fails the target.
examples:
	@for d in examples/*/; do echo "go run ./$$d"; go run "./$$d" >/dev/null || exit 1; done

# fuzz-smoke: a short bounded run of each fuzz target (CI uses this).
fuzz-smoke:
	go test -run NONE -fuzz FuzzADMBinaryRoundTrip -fuzztime 10s ./internal/adm
	go test -run NONE -fuzz FuzzADMDecodeFields -fuzztime 10s ./internal/adm
	go test -run NONE -fuzz FuzzDecodeRecord -fuzztime 10s ./internal/adm
	go test -run NONE -fuzz FuzzKeySplit -fuzztime 10s ./internal/adm
	go test -run NONE -fuzz FuzzNumberKey -fuzztime 10s ./internal/adm
	go test -run NONE -fuzz FuzzSQLPPParse -fuzztime 10s ./internal/sqlpp
	go test -run NONE -fuzz FuzzLexerMatchesReference -fuzztime 10s ./internal/sqlpp
	go test -run NONE -fuzz FuzzCompiledExpr -fuzztime 10s ./internal/algebricks
	go test -run NONE -fuzz FuzzBTreePage -fuzztime 10s ./internal/btree
	go test -run NONE -fuzz FuzzAggregateMerge -fuzztime 10s ./internal/hyracks

help:
	@echo "Targets:"
	@echo "  tier1       build + test (the must-stay-green gate)"
	@echo "  verify      tier1 + lint + optimizer + go vet + race detector"
	@echo "  lint        asterixlint static analysis over the module"
	@echo "  optimizer   golden plans, join regressions, on/off equivalence (race)"
	@echo "  invariants  tests with deep structural validators enabled"
	@echo "  fault-matrix crash-recovery + task-fault tests with validators on"
	@echo "  examples    run every program under examples/ (fails on a non-zero exit)"
	@echo "  fuzz-smoke  short bounded fuzz run (ADM codec and its JSON rendering, stored-record decoder, partial decoder, key splitter and number keys, SQL++ parser, lexer vs. reference, compiled vs. interpreted expressions, B+tree page reader, aggregate merge)"
	@echo "  bench       top-level benchmarks + adm/algebricks/btree/hyracks/lsm/sqlpp/txn microbenchmarks, once each"
	@echo "  bench-smoke small-scale experiment run -> BENCH_ci.json, diffed vs BENCH_1.json (alloc counters gate hard), plus the component-build gate (one write per page, full leaves)"
	@echo "  bench-repo-smoke repository benchmark: benchmark/ module tests + a 2 s checked point_serve run at smoke scale"

.PHONY: tier1 verify lint optimizer invariants fault-matrix bench bench-smoke bench-repo-smoke examples fuzz-smoke help
