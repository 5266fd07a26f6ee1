#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from anywhere; every argument is passed to the benchmark:
#
#   bash e2ebench/run.sh --workload tenant-stream --seed 1 --seconds 20 --trace 0
#
# The Go build cache and settings stay inside the checkout under
# .bench_build, and nothing is fetched: the benchmark depends only on this
# repository and the standard library.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
cd "$root"
exec "$build/e2ebench" --out "$root/e2ebench/out" "$@"
