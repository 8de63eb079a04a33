#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it from the
# checkout root. The Go build cache, GOPATH, the go command's own config
# and telemetry directory and every temp file live there too, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOWORK=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -C "$here" -o "$build/pgxsort-benchmark" .
cd "$root"
exec "$build/pgxsort-benchmark" "$@"
