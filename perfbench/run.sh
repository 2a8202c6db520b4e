#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload crowd --seed 1 --seconds 20 --trace 0
#
# Every build artefact, the Go build cache and temporary files included,
# stays under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
