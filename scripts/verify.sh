#!/usr/bin/env bash
# verify.sh — the full pre-PR gate, one command away:
#
#   ./scripts/verify.sh          # build + vet + gofmt + race tests + scvet
#   ./scripts/verify.sh -short   # same, with -short tests (skips the
#                                # whole-module self-analysis test)
#
# Every check must pass before a PR merges. scvet (cmd/scvet) is the
# repo-specific static analyzer; see DESIGN.md §7 for its rules and the
# //scvet:ignore suppression syntax.
set -euo pipefail
cd "$(dirname "$0")/.."

short=""
if [[ "${1:-}" == "-short" ]]; then
    short="-short"
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# gofmt gate over every tracked Go file. The scvet fixtures under
# internal/analysis/testdata are exempt: they are analyzer inputs, kept as
# their golden expectations were written.
echo "==> gofmt -l"
unformatted=$(git ls-files -z '*.go' | grep -zv '^internal/analysis/testdata/' | xargs -0 gofmt -l)
if [[ -n "$unformatted" ]]; then
    echo "verify: files need gofmt:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Kernel bits and solver accuracy, uninstrumented: the recorded sweep-box
# bits, handle reuse, the in-solve helpers against GOMAXPROCS 1 and the
# sparse kernels against their reference loops (the 4-lane kernel against
# four single-lane calls); the sweep box's metrics against a
# tight-tolerance solve, the queue cap's flux bound and the steady tail it
# cuts off, and the Gauss-Seidel solver against its reference loop's fixed
# point. A kernel change that moves one bit, or a solver or truncation
# change that loses accuracy, fails here in seconds instead of after the
# race suite. The GOMAXPROCS test then runs five more times under -race:
# its helpers share the level they step and the spine level the readouts
# read, and a race that moves no bit in one run may in another.
echo "==> kernel bits and solver accuracy"
go test -count=1 -run 'TestSweepBoxBitIdentity|TestSweepBoxRelaxedAccuracy|TestQueueCapFluxBound|TestQueueCapTailMass|TestSolverReuseBitIdentical|TestGOMAXPROCSBitIdentity|TestGaussSeidelMatchesReference|TestMulVecTToMatchesNaive|TestMulVecTTo4MatchesMulVecTTo|TestBuildOrderIndependentProperty' \
    ./internal/approx/ ./internal/markov/ ./internal/sparse/
go test -race -count=5 -timeout 30m -run 'TestGOMAXPROCSBitIdentity' ./internal/approx/

# perfbench is a module of its own, so ./... above does not reach it. Its
# harness tests (tail percentile, calibration, fail_ratio counting, and the
# calibration kernel's no-import/no-alloc guards) run offline.
echo "==> perfbench harness tests"
(cd perfbench && GOFLAGS=-mod=mod GOPROXY=off go test -count=1 .)

# The race-instrumented approx suite outgrew go test's default 10m
# per-package timeout; give the full gate headroom.
echo "==> go test -race ${short} ./..."
go test -race -timeout 30m ${short} ./...

echo "==> go run ./cmd/scvet ./..."
go run ./cmd/scvet ./...

echo "==> scvet fixture self-test"
go run ./cmd/scvet -fixtures

# Warm-cache snapshot smoke: the serve-level round trip plus the real
# drain/boot cycle through cmd/scserve -snapshot.
echo "==> snapshot round-trip smoke"
go test -count=1 -run 'Snapshot' ./internal/serve/ ./cmd/scserve/

# Fleet smoke: a dispatcher with in-process workers (including a worker
# killed mid-grid whose lease requeues) must merge a sweep bit-identically
# to the local single-process result, both at the package layer and
# through the real scdispatch/scworkd command loops.
echo "==> fleet smoke: dispatcher + workers vs local sweep"
go test -count=1 -run 'TestFleetMatchesLocalSweep|TestFleetSnapshotBoot' ./internal/fleet/
go test -count=1 -run 'TestFleetEndToEnd|TestWorkerEndToEnd' ./cmd/scdispatch/ ./cmd/scworkd/
go test -count=1 -run 'TestDispatchSweep' ./internal/serve/

# Differential fuzz smoke: 30s per target over the committed corpus plus
# fresh coverage-guided inputs. A genuine envelope violation reproduces from
# the corpus entry the fuzzer writes under internal/diffcheck/testdata/fuzz.
for target in FuzzSolveAllVsSolve FuzzApproxVsExact FuzzApproxVsSim; do
    echo "==> go test -fuzz ${target} (30s)"
    go test ./internal/diffcheck/ -run '^$' -fuzz "^${target}\$" -fuzztime 30s
done

echo "==> godoc audit: every internal package declares a package comment"
missing=0
for dir in $(find internal -type d -not -path '*/testdata*'); do
    # Only directories that actually hold a non-test Go file form a package.
    files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
    [[ -z "$files" ]] && continue
    if ! grep -l '^// Package ' $files >/dev/null; then
        echo "verify: package in $dir has no '^// Package' comment" >&2
        missing=1
    fi
done
# Every binary gets the same treatment: a '// Command <name>' doc comment
# explaining what it runs and its flags.
for dir in $(find cmd -mindepth 1 -maxdepth 1 -type d); do
    files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
    [[ -z "$files" ]] && continue
    if ! grep -l '^// Command ' $files >/dev/null; then
        echo "verify: binary in $dir has no '^// Command' comment" >&2
        missing=1
    fi
done
if [[ "$missing" -ne 0 ]]; then
    echo "verify: godoc audit failed" >&2
    exit 1
fi

# Every root benchmark runs once, so none of the per-layer benchmarks can
# stop building or running unnoticed: all the Ablation benchmarks, every
# BenchmarkGameRound row, and the K=4 row of BenchmarkApproxKScaling (its
# larger rows take seconds each). The sweep-box benchmark is the approx
# kernel's reference timing; one iteration keeps it building and running.
echo "==> quick-bench smoke (root benchmarks, BenchmarkApproxSweepBox, 1x)"
go test -run '^$' -bench 'BenchmarkAblation|BenchmarkGameRound|BenchmarkApproxKScaling/K=4$' -benchtime 1x .
go test -run '^$' -bench '^BenchmarkApproxSweepBox$' -benchtime 1x ./internal/approx/

# Allocation-diet smoke: the AllocsPerRun budgets on a reused Solver handle
# (warm single-level solve and warm whole-vector solve), on a warm AdviseAt,
# on a memo hit and on claim.Run's serial path catch a change that quietly
# reintroduces per-level, per-state, per-lookup or per-fan-out allocation.
echo "==> allocation-budget smoke (approx Solver arena reuse, warm advice, memo hits, serial claims)"
go test -count=1 -run 'TestWarmSolveAllocBudget|TestWarmAdviseAllocBudget|TestMemoHitAllocFree|TestRunSerialAllocFree' ./internal/approx/ ./internal/core/ ./internal/market/ ./internal/claim/

echo "verify: all checks passed"
