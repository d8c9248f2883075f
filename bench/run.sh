#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ of the checkout it is run from
# and runs it there. Everything the Go tool writes (build cache, temp dir,
# module cache, its own configuration and counters) is kept inside the
# checkout too, and it is told not to fetch anything, so a run reads and
# writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
