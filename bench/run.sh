#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from bench/,
# passing every argument through. Run from the repository root:
#
#   bash bench/run.sh --workload sp-a-p2 --seed 1 --seconds 28 --trace 0
#
# Build outputs and the Go build cache stay in $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout, and no module is fetched.
set -euo pipefail

root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

cd bench
go build -buildvcs=false -o "$build/genmp-bench" .
exec "$build/genmp-bench" "$@"
