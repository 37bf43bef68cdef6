#!/usr/bin/env bash
# Builds the benchmark inside the checkout (build cache, binary and node
# data all go under .bench_build/) and runs it with the given flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" -data-root "$build/data" "$@"
