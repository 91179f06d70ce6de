#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 25 --trace 0
#
# Every build artifact (binary, Go build cache and work directories, Go's
# config and telemetry directory) stays under .bench_build/ in the
# checkout, so the run reads and writes nothing outside it. A checkout
# without the engine's sources fails the build and exits non-zero before
# anything is measured.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
