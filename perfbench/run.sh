#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload t10i4-count --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, temporary databases and span files all live
# under .bench_build/ in the current directory, so nothing is written
# outside the checkout.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
