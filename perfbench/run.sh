#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload svc-hot --seed 1 --seconds 20 --trace 0
#
# Everything it writes (the Go build cache, the binary, scratch stores,
# spans and determinism records) goes under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C perfbench build -o "$out/perfbench" .
# setup_s counts the process's start-up from here: loading the binary and
# initialising every package.
export PERFBENCH_EXEC_NS="$(date +%s%N)"
exec "$out/perfbench" -out "$out" "$@"
