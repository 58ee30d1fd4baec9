#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything it writes (Go build cache, binary, temporary WALs, results,
# trace.json) lands in .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gomod" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
BENCH_GIT_SHA="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
export BENCH_GIT_SHA
(cd "$here" && go build -buildvcs=false -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
