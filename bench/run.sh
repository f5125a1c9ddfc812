#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload echo_tcp_mux --seed 1 --seconds 8 --trace 0
#
# Everything the build writes — the Go build cache included — stays in
# .bench_build/ inside the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache"
export GOCACHE=$build/gocache GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/coolbench" .)
exec "$build/coolbench" "$@"
