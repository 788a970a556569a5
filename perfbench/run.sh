#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload spmv-hmep-tcp-task --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare <result-dir-A> <result-dir-B>
#
# Build state (Go build cache, binary) and result files stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
