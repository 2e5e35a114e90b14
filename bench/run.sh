#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the bench (its own module,
# importing the repo's packages through the replace directive in go.mod)
# with every Go cache inside the checkout, then runs it from the repo root.
# The bench itself builds ./cmd/storeserver and ./cmd/brokerserver.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
go build -C "$root/bench" -buildvcs=false -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
