#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the go toolchain writes (build cache, work directory,
# telemetry) is redirected under .bench_build/ so a run touches nothing
# outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/gonoc-benchmark" .)
cd "$root"
exec "$out/gonoc-benchmark" "$@"
