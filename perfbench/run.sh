#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-flat --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# go command configuration, the binary, the serve workload's plan-store
# directories) stays under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$PWD/.bench_build"
mkdir -p "$work/gocache" "$work/gotmp" "$work/config"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters here too.
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" XDG_CONFIG_HOME="$work/config"
# The module has no dependencies outside this repository; never let the go
# command reach for the network or a different toolchain.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$here" && go build -o "$work/perfbench" .)
exec "$work/perfbench" --expected "$here/expected.json" --benchmark-json "$PWD/BENCHMARK.json" \
	--workdir "$work/run" "$@"
