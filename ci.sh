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

echo "== go test =="
go test ./...

echo "== bench module smoke (nested module: root go build/test do not compile it) =="
go -C bench test .

echo "== detlint (determinism analyzers over the deterministic-replay packages) =="
go build -o /tmp/detlint.$$ ./cmd/detlint
DETLINT_PKGS="./internal/check ./internal/core ./internal/fuzz ./internal/campaign ./internal/userstudy ./internal/workload"
if go vet -vettool=/tmp/detlint.$$ $DETLINT_PKGS; then
    echo ok
else
    # The vettool protocol is an internal go-command contract; if a
    # toolchain change breaks the handshake, the analyzers still gate
    # via the standalone mode (type-driven checks degrade, see detlint).
    echo "vettool run failed; retrying in detlint direct mode"
    /tmp/detlint.$$ $DETLINT_PKGS
    echo ok
fi
rm -f /tmp/detlint.$$

echo "== cnetlint (specs + standard worlds, defective and fixed) =="
go run ./cmd/cnetlint -fail-on error >/dev/null
go run ./cmd/cnetlint -fixed -fail-on error >/dev/null
echo ok

go build -o /tmp/cnetverify.$$ ./cmd/cnetverify

echo "== POR gate (3-UE world: violation sets must match with and without -por) =="
/tmp/cnetverify.$$ -world multiue -violations >/tmp/viol_plain.$$
/tmp/cnetverify.$$ -world multiue -por -violations >/tmp/viol_por.$$
cmp /tmp/viol_plain.$$ /tmp/viol_por.$$
rm -f /tmp/viol_plain.$$ /tmp/viol_por.$$
echo ok

echo "== symmetry gate (shared-core 3-UE world: -sym and -por -sym must keep the violation set) =="
/tmp/cnetverify.$$ -world multiue-shared -violations >/tmp/viol_plain.$$
/tmp/cnetverify.$$ -world multiue-shared -sym -violations >/tmp/viol_sym.$$
cmp /tmp/viol_plain.$$ /tmp/viol_sym.$$
/tmp/cnetverify.$$ -world multiue-shared -por -violations >/tmp/viol_por.$$
/tmp/cnetverify.$$ -world multiue-shared -por -sym -violations >/tmp/viol_porsym.$$
cmp /tmp/viol_por.$$ /tmp/viol_porsym.$$
rm -f /tmp/viol_plain.$$ /tmp/viol_sym.$$ /tmp/viol_por.$$ /tmp/viol_porsym.$$
echo ok

echo "== visited-table gate (exact mode: violation sets byte-identical across worker counts, every standard world) =="
for world in s1 s2 s3 s4cs s4ps s6 multiue multiue-shared; do
    /tmp/cnetverify.$$ -world "$world" -violations >/tmp/viol_w1.$$
    /tmp/cnetverify.$$ -world "$world" -workers 4 -violations >/tmp/viol_w4.$$
    /tmp/cnetverify.$$ -world "$world" -workers 8 -violations >/tmp/viol_w8.$$
    cmp /tmp/viol_w1.$$ /tmp/viol_w4.$$
    cmp /tmp/viol_w1.$$ /tmp/viol_w8.$$
done
rm -f /tmp/viol_w1.$$ /tmp/viol_w4.$$ /tmp/viol_w8.$$
echo ok

echo "== timing gate (degenerate virtual time: violation sets byte-identical to untimed, every standard world x reduction x worker count) =="
for world in s1 s2 s3 s4cs s4ps s6 multiue multiue-shared; do
    /tmp/cnetverify.$$ -world "$world" -violations >/tmp/viol_ref.$$
    for mode in "" "-por" "-sym"; do
        for w in 1 4 8; do
            # shellcheck disable=SC2086 # $mode is intentionally word-split
            /tmp/cnetverify.$$ -world "$world" -timing -timing-profile degenerate $mode -workers "$w" -violations >/tmp/viol_timed.$$
            cmp /tmp/viol_ref.$$ /tmp/viol_timed.$$
        done
    done
done
rm -f /tmp/viol_ref.$$ /tmp/viol_timed.$$
echo ok

echo "== layered-engine gate (bfs summary line — states, transitions, verdict — byte-identical at 1, 2 and 8 workers) =="
# The -sym runs key the visited table canonically while the frontier
# holds plain keys.
for args in "-world multiue-shared" "-world s6" "-world s1 -timing" \
    "-world multiue-shared -sym" "-world s6 -timing -sym"; do
    # shellcheck disable=SC2086 # $args is intentionally word-split
    /tmp/cnetverify.$$ $args -strategy bfs -workers 1 >/tmp/sum_w1.$$
    for w in 2 8; do
        # shellcheck disable=SC2086
        /tmp/cnetverify.$$ $args -strategy bfs -workers "$w" >/tmp/sum_wn.$$
        cmp /tmp/sum_w1.$$ /tmp/sum_wn.$$
    done
done
rm -f /tmp/cnetverify.$$ /tmp/sum_w1.$$ /tmp/sum_wn.$$
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

echo "== go test -race (parallel engine + determinism suite) =="
go test -race ./internal/check ./internal/core

echo "== go test -race x5 (layered engine: chunk claims, layer barrier, mid-layer stop; ~3 min a pass) =="
go test -race -count=5 -timeout 30m -run 'TestParallel' ./internal/check

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

echo "== benchmarks (smoke, alloc-counted, 1 iteration each, screening included) =="
go test -run '^$' -bench . -benchtime=1x -benchmem . >/dev/null

echo "CI gate passed."
