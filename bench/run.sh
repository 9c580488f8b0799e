#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (Go build cache, module cache, the binary)
# lands under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/bench" && go build -o "$build/cyberhd-bench" .)
cd "$root"
exec "$build/cyberhd-bench" "$@"
