#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload gsino-s1 --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and Go's own configuration stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the tree.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
