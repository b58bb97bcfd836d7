#!/usr/bin/env bash
# Builds the benchmark runner from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload wave --seed 1 --seconds 10 --trace 0
#
# Every build artefact (Go build cache, temporary files, the runner
# binary, span dumps) stays under .bench_build in the current
# directory, and the module proxy is off, so the build never reaches
# the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
