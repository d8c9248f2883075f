#!/bin/sh
# ci.sh — the repository's tier-1+ gate. Runs formatting, vet, build,
# the full test suite, the lint CLI over every registered spec and
# standard world, and the race detector on the packages that use real
# concurrency (the emulators drive goroutine-per-process stacks).
#
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l . 2>&1)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== seeded-RNG idiom (stats.NewRand is the one seeded constructor outside tests) =="
# bench/ is the benchmark's own module, frozen apart from this tree.
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build --exclude-dir=bench \
    'rand\.NewSource(' . | grep -v '^\./internal/stats/'; then
    echo "rand.NewSource outside internal/stats: use stats.NewRand(seed)"
    exit 1
fi
echo ok

echo "== go build =="
go build ./...

echo "== no shipped binary links testing (every main under cmd/ and examples/) =="
deps=$(go list -f '{{.ImportPath}}:{{range .Deps}} {{.}}{{end}}' ./cmd/... ./examples/...)
offenders=$(printf '%s\n' "$deps" | grep -E ' testing( |$)' | cut -d: -f1)
if [ -n "$offenders" ]; then
    echo "these link the testing package (keep testing.* in _test.go files):"
    echo "$offenders"
    exit 1
fi
echo ok

echo "== go test =="
go test ./...

echo "== bench module smoke (nested module: root go build/test do not compile it) =="
go -C bench test .

echo "== detlint (determinism analyzers over the deterministic-replay packages) =="
go build -o /tmp/detlint.$$ ./cmd/detlint
DETLINT_PKGS="./internal/check ./internal/core ./internal/fuzz ./internal/campaign ./internal/userstudy ./internal/workload"
# The vettool protocol is an internal go-command contract. Only if the
# tool's side of the handshake (-V=full, -flags) fails do the analyzers
# gate in the standalone mode instead (non-test files, type-driven
# checks degraded, see detlint); once the handshake holds, a finding
# from go vet fails the leg.
if /tmp/detlint.$$ -V=full >/dev/null && /tmp/detlint.$$ -flags >/dev/null; then
    go vet -vettool=/tmp/detlint.$$ $DETLINT_PKGS
else
    echo "vettool handshake failed; running detlint in direct mode"
    /tmp/detlint.$$ $DETLINT_PKGS
fi
rm -f /tmp/detlint.$$
echo ok

echo "== cnetlint (specs + standard worlds, defective and fixed) =="
go run ./cmd/cnetlint -fail-on error >/dev/null
go run ./cmd/cnetlint -fixed -fail-on error >/dev/null
echo ok

echo "== visited-table race leg x20 (shard locks: claims, min-depth merges, shard growth, MaxStates and Budget caps) =="
go test -race -count=20 -run 'TestVTableRaceHammer|TestVTableConcurrentCaps' ./internal/check

echo "== alloc budgets (flat visited table, keying, key loading, canonical hashing, scenario events and apply/undo stay on the alloc-free hot path) =="
go test -run 'TestScreenAllocBudget|TestScreenSymAllocBudget|TestParallelAllocBudget|TestScenarioEventsAllocFree' ./internal/core
go test -run 'TestAppendCanonicalHashAllocFree|TestSaveApplyRestoreAllocFree|TestAppendKeyAllocFree|TestLoadKeyAllocFree' ./internal/model

echo "== delta-state race leg (stamped undo + replica cache, two worlds sharing one globals layout) =="
go test -race -count=10 -run 'TestDeltaStateSharedLayout' ./internal/model

echo "== collapsed-key race leg (lock-free interner reads and folds, piece values published before their ids, per-world piece caches, clone and load hand-over) =="
go test -race -count=5 -run 'TestInternerConcurrent|TestKeyFingerprintIndependentOfInterningOrder|TestKeyDistinguishesWhatEncodingDistinguishes|TestQuickDeltaState|TestLoadKeyConcurrent|TestLoadKeyPieceKinds' ./internal/model

echo "== go test -race (concurrent packages) =="
go test -race ./internal/netemu ./internal/emu ./internal/fixes

echo "== go test -race (parallel engine + engine-equivalence oracle) =="
go test -race ./internal/check ./internal/core

# TestParallelDeterminism runs once, in the leg above: each screen it
# makes (the sequential run twice, sequential BFS, and 1, 2 and 8
# workers on each of its worlds) is a cell of the oracle's race-sized
# grid, which this leg repeats.
echo "== go test -race x5 (layered engine: chunk claims, layer barrier, mid-layer stop; the oracle's race-sized grid) =="
go test -race -count=5 -timeout 30m -run 'TestEngineEquivalence|TestParallel' -skip '^TestParallelDeterminism$' ./internal/core ./internal/check

echo "== go test -race (sweep campaign engine) =="
go test -race ./internal/validate

echo "== go test -race (population load engine: worker determinism matrix) =="
go test -race -run 'TestCampaign' ./internal/campaign

echo "== go test -race (coverage-guided fuzzer) =="
go test -race ./internal/fuzz

echo "== fuzz smoke (trace line codec, 30s) =="
go test ./internal/trace -fuzz FuzzRecordLine -fuzztime 30s >/dev/null

echo "== cnetfuzz smoke (small budget, must find new coverage) =="
go run ./cmd/cnetfuzz -world s1 -budget 2000 -workers 8 -min-new 1 >/dev/null
echo ok

echo "== cnetfuzz shrink smoke (screen S1, ddmin must terminate + re-verify) =="
go run ./cmd/cnetfuzz -screen -world s1 -shrink | grep -q '^shrunk '
echo ok

go build -o /tmp/cnetsim.$$ ./cmd/cnetsim

echo "== sweep smoke (single cell, S1, both worker counts; defective and cross-system-fixed stacks) =="
for fixes in "" crosssys; do
    /tmp/cnetsim.$$ -sweep -findings S1 -loss 0.2 -seeds 4 -fixes "$fixes" -workers 1 -format csv >/tmp/sweep1.$$
    /tmp/cnetsim.$$ -sweep -findings S1 -loss 0.2 -seeds 4 -fixes "$fixes" -workers 8 -format csv >/tmp/sweep8.$$
    cmp /tmp/sweep1.$$ /tmp/sweep8.$$
done
rm -f /tmp/sweep1.$$ /tmp/sweep8.$$
echo ok

echo "== campaign gates (golden fixture, alloc budget, worker determinism) =="
go test -run 'TestCampaignGolden|TestCampaignAllocBudget' ./internal/campaign
/tmp/cnetsim.$$ -campaign -ues 20000 -horizon 5m -workers 1 -format json >/tmp/camp1.$$
/tmp/cnetsim.$$ -campaign -ues 20000 -horizon 5m -workers 8 -format json >/tmp/camp8.$$
cmp /tmp/camp1.$$ /tmp/camp8.$$
rm -f /tmp/cnetsim.$$ /tmp/camp1.$$ /tmp/camp8.$$
echo ok

echo "== fuzz smoke (campaign occurrence-row codec, 15s) =="
go test ./internal/campaign -run '^$' -fuzz FuzzCampaignRow -fuzztime 15s >/dev/null

echo "== screening benchmark smoke (BenchmarkScreenWorlds, alloc-counted, 1 iteration per world) =="
go test -run '^$' -bench . -benchtime=1x -benchmem . >/dev/null

echo "CI gate passed."
