#!/bin/sh
# Builds the perf harness from source and runs it with the given
# arguments. Run from the repository root:
#
#   sh perf/run.sh --workload deep-shared --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the harness's scratch files all live
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -eu
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOFLAGS= go -C "$root/perf" build -o "$out/respin-perf" .
exec "$out/respin-perf" -work "$out/perf" "$@"
