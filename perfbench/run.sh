#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare old-*.json -- new-*.json
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
       GOMODCACHE="$build/gopath/pkg/mod" HOME="$build/home" \
       XDG_CONFIG_HOME="$build/home/.config" GOTOOLCHAIN=local GOPROXY=off \
       GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
