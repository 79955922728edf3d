#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash bench/run.sh --workload sweep-paper20 --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the build's temporary files stay in
# .bench_build/ inside the checkout; the build needs no network.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
