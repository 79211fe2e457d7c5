#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (a module of its
# own inside the repository's, so that it can import repro/internal/...) and
# runs it from bench/. Everything it writes — build cache, binary, results,
# span files, WAL directories — stays under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out
out="$PWD/out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bench" .
exec "$out/bench" "$@"
