#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, from the checkout root:
#
#   bash qifbench/run.sh --workload fig3-compress --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, ledger
# temp dirs, span files) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The module has no dependencies outside the checkout: never touch the
# network. A pure-Go build needs no C toolchain.
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off GOSUMDB=off GOFLAGS= CGO_ENABLED=0
(cd "$here" && go build -o "$build/qifbench" .)
cd "$root"
exec "$build/qifbench" "$@"
