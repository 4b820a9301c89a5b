#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload agent-hot --seed 1 --seconds 10 --trace 0
# Everything the build and the run write (Go build cache, binary, the
# temporary stores, span files) stays under .bench_build/perfbench.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build/perfbench"
mkdir -p "$work/tmp" "$work/xdg"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/xdg" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$work/perfbench" .)
exec "$work/perfbench" -work "$work" "$@"
