GO ?= go
GOFMT ?= gofmt

.PHONY: ci vet build race fuzz test test-short bench tables clean

# ci is the gate: static checks, build, the concurrency-sensitive
# packages under the race detector (among them concurrent clones of one
# boot memory, in internal/mem and through parallel engine rounds),
# short fuzz smokes on the solver cache key, the interning equivalence
# property, the compiled evaluator (vs Eval), the COW memory (clone/write and page-straddling multi-byte
# access vs a deep-copy reference model), the VM's decode table and block leaders (vs a
# decode-walk reference map), the SAT core with unit clauses added between solves
# (vs brute-force enumeration), a Reset SAT solver (vs a new one), the
# append-only journal (crashed log plus single- and two-handle appends
# against a line-split reference model), the job-journal replay (against
# an in-memory reference model), the symbolic-store weak-update image
# (against a concrete-memory reference model), 64-bit division by a
# constant (against sym.Eval) and the coverage set's merge (against a
# map reference model), then the full suite.
ci: vet build race fuzz test

# vet fails on any Go file gofmt would rewrite, bench/ and dot
# directories excepted. bench/ is its own module (replace repro => ../),
# invisible to the root ./...; vetting it catches core/service type
# changes that break it.
vet:
	@unformatted=$$(find . -path ./bench -prune -o -path './.*' -prune -o -name '*.go' -print | xargs $(GOFMT) -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) -C bench vet ./...

build:
	$(GO) build ./...
	$(GO) build ./cmd/congolic ./examples/demo

race:
	$(GO) test -race -count=1 ./internal/sym/... ./internal/sat/... ./internal/bitblast/... ./internal/core/... ./internal/cover/... ./internal/mutate/... ./internal/solver/... ./internal/service/... ./internal/mem/... ./internal/gos/... ./internal/lift/... ./internal/journal/... ./internal/jobstore/... ./internal/sharedcache/... ./internal/bombs/... ./internal/symexec/...
	$(GO) test -race -count=1 -short ./internal/gofront/ ./internal/cliopts/ ./internal/target/ ./internal/suggest/
	$(GO) test -race -count=1 -run 'TestGridExtended|TestRunCellShares' ./internal/eval/

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCanonicalKey -fuzztime=5s ./internal/sym/
	$(GO) test -run '^$$' -fuzz FuzzInternEval -fuzztime=5s ./internal/sym/
	$(GO) test -run '^$$' -fuzz FuzzCompiledEval -fuzztime=5s ./internal/sym/
	$(GO) test -run '^$$' -fuzz FuzzMemoryCOW -fuzztime=5s ./internal/mem/
	$(GO) test -run '^$$' -fuzz FuzzProgramDecode -fuzztime=5s ./internal/vm/
	$(GO) test -run '^$$' -fuzz FuzzSolveBruteForce -fuzztime=5s ./internal/sat/
	$(GO) test -run '^$$' -fuzz FuzzResetEquivalence -fuzztime=5s ./internal/sat/
	$(GO) test -run '^$$' -fuzz FuzzMutateDeterminism -fuzztime=5s ./internal/mutate/
	$(GO) test -run '^$$' -fuzz FuzzJournal -fuzztime=5s ./internal/journal/
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime=5s ./internal/jobstore/
	$(GO) test -run '^$$' -fuzz FuzzSymbolicWriteEquivalence -fuzztime=5s ./internal/symexec/
	$(GO) test -run '^$$' -fuzz FuzzDivConst -fuzztime=5s ./internal/bitblast/
	$(GO) test -run '^$$' -fuzz FuzzCoverSetMerge -fuzztime=5s ./internal/cover/

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkPigeonhole7|BenchmarkPropagationChain|BenchmarkFreshQuery|BenchmarkFactorQuery' -benchmem ./internal/sat/
	$(GO) test -run '^$$' -bench 'BenchmarkExploreParallel|BenchmarkSolverCacheHitRate' -benchtime 3x ./internal/core/...
	$(GO) test -run '^$$' -bench 'BenchmarkMemClone|BenchmarkMemCloneWriteFault' ./internal/mem/...
	$(GO) test -run '^$$' -bench 'BenchmarkExecLoop' ./internal/vm/
	$(GO) test -run '^$$' -bench 'BenchmarkGuestSHA1' -benchmem ./internal/gos/
	$(GO) test -run '^$$' -bench 'BenchmarkInputKey' ./internal/core/...
	$(GO) test -run '^$$' -bench 'BenchmarkEngineNew' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkCacheSolveHit|BenchmarkSolveUncached|BenchmarkCanonicalKey' ./internal/solver/...
	$(GO) test -run '^$$' -bench 'BenchmarkRoundFresh' -benchtime 3x ./internal/solver/
	$(GO) test -run '^$$' -bench 'BenchmarkFPLocalSearch|BenchmarkFPSearchUnknown|BenchmarkCacheMissSequence' -benchmem ./internal/solver/
	$(GO) test -run '^$$' -bench 'BenchmarkCanonicalKeyInterned|BenchmarkCanonicalKeyStable|BenchmarkInternConstruct' ./internal/sym/
	$(GO) test -run '^$$' -bench 'BenchmarkBitblastSharedDAG' -benchtime 3x ./internal/bitblast/
	$(GO) test -run '^$$' -bench 'BenchmarkDividerEncode|BenchmarkRemConst64Solve' -benchmem ./internal/bitblast/

tables:
	$(GO) run ./cmd/evaltable -all

clean:
	$(GO) clean ./...
