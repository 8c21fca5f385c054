#!/bin/sh
# Builds the benchmark, reprobench, and runs it from the root of a checkout:
#
#   sh bench/run.sh --workload report-paper --seed 2007 --seconds 15 --trace 0
#
# Its binary, the binaries it measures, the Go build cache and
# every scratch file stay under .bench_build in the checkout.
set -e
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/bin/reprobench" ./cmd/reprobench
exec "$out/bin/reprobench" "$@"
