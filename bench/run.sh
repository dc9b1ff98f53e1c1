#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -out run.json      # every workload, one child each
#   bash bench/run.sh -seed 1 --trace 1          # traced per-layer suite
#   bash bench/run.sh compare -base A -head B    # compare two sets of -out files
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, the binary, traced-run span dumps and figure journals)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

go -C "$root/bench" build -o "$out/copabench" .
exec "$out/copabench" "$@"
