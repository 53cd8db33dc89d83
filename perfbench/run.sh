#!/usr/bin/env bash
# Builds the sweep benchmark from the checkout it is run in, then runs it:
#
#   bash perfbench/run.sh --workload bulk|pages|lossy --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build outputs and the Go build cache stay
# under $CARGO_TARGET_DIR (default .bench_build) so nothing is written
# outside the checkout; the first run compiles the standard library into
# that cache.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
