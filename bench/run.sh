#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it from the
# repository root. This is BENCHMARK.json's command; arguments pass straight
# through to the program (see main.go). With none, every workload runs
# untraced and then traced.
#
# Everything the build and the run write stays inside this directory: the
# binary and the Go build cache under .build/, run data under out/. The
# first build in a checkout compiles the standard library too (about 15 s
# on two cores); later ones only check that nothing changed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/qsbench" .)
cd "$here/.."
exec "$build/qsbench" "$@"
