#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload paper-bus --seed 1 --seconds 10 --trace 0
#
# Run from the root of an mgpucompress checkout. Build outputs, the Go build
# cache and the traced runs' spans and profiles go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is read or written outside the checkout
# except the Go toolchain itself.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the root of an mgpucompress checkout (no simulator sources in $root)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build="$root/$build"
mkdir -p "$build/perfbench/tmp"

export GOCACHE="$build/perfbench/gocache"
export GOTMPDIR="$build/perfbench/tmp"
export GOPATH="$build/perfbench/gopath"
export XDG_CONFIG_HOME="$build/perfbench/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out "$build/perfbench/out" "$@"
