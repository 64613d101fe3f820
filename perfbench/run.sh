#!/usr/bin/env bash
# Builds the benchmark and the unmodified smpserve binary from the checkout
# in the current directory, then runs one workload:
#
#   bash perfbench/run.sh --workload paper-serial --seed 1 --seconds 12 --trace 0
#
# Every build product, cache and scratch file stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) of the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home"

export HOME=$build/home
export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOPATH=$build/gopath
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go -C perfbench build -o "$build/perfbench" .
go -C perfbench build -o "$build/smpserve" smp/cmd/smpserve
exec "$build/perfbench" --server "$build/smpserve" --work "$build/perfbench-work" "$@"
