#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it. Run it
# from the checkout root:
#
#   bash armbench/run.sh --workload study --seed 1 --seconds 20 --trace 0
#   bash armbench/run.sh steady
#
# Everything it writes goes under .bench_build/ in the checkout, the Go
# build cache included.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd armbench && go build -o "$out/armbench" .)
exec "$out/armbench" "$@"
