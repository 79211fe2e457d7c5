#!/bin/sh
# Runs the hot-path benchmark sweep and holds it to the zero-allocation
# contract: the serving path (core access -> encrypt -> store, and the
# sharded single-op path) must not allocate in steady state. The sweep's
# parsed results land in BENCH_pr6.json (or $1); the gate fails the build
# if any gated benchmark reports more than the budget below.
#
# Budget 1 (not 0): ultra-short CI runs can round pool warm-up and
# RunParallel goroutine setup to 1 alloc/op; anything above that is a real
# per-operation allocation on the hot path. BenchmarkAccessStrawmanEncrypted
# is deliberately outside the gate — the Section 2.2.1 strawman allocates
# per block by design.
#
# BenchmarkAccessRecursivePLBHit is in the gate (PR 8): the position-map
# lookaside cache's hit path resolves the leaf without touching the
# posmap ORAMs and must stay on the pooled-buffer discipline, so a warm
# all-hits run is held to the same allocs/op budget.
#
# BenchmarkSchedFRFCFS2Shard is in the gate (PR 9): the open-queue
# serving path — event rings, skip-mask pool, merged-window batch
# scratch, and the per-channel scheduling window — must reach steady
# state without per-op allocation, same as the in-order path it extends.
#
# Counter encryption is also held to a relative cost (PR 14): with the
# 8-wide AES-NI keystream kernel a counter-encrypted access is ~4x a
# plaintext one (11x when pads were generated a block at a time), so
# more than 7x means the kernel has stopped being the path that runs.
set -eu

out="${1:-BENCH_pr6.json}"
benchtime="${BENCHTIME:-2000x}"

go test -run xxx \
  -bench 'BenchmarkAccessMetadataOnly|BenchmarkAccessPlaintext|BenchmarkAccessCounterEncrypted|BenchmarkAccessConstantTimeStash|BenchmarkAccessRecursivePLBHit|BenchmarkShardedThroughput$|BenchmarkShardedThroughputEncrypted|BenchmarkShardedDRAM|BenchmarkSchedFRFCFS2Shard' \
  -benchtime "$benchtime" -benchmem . |
  go run ./cmd/oram-benchjson -out "$out" \
    -gate 'BenchmarkAccessPlaintext|BenchmarkAccessCounterEncrypted|BenchmarkAccessConstantTimeStash|BenchmarkAccessRecursivePLBHit|BenchmarkShardedThroughput|BenchmarkSchedFRFCFS2Shard' \
    -max-allocs 1 \
    -require 'BenchmarkAccessCounterEncrypted:ns/op<7*BenchmarkAccessPlaintext:ns/op'

echo "wrote $out"

# The design-space report rides the same gate entry point (PR 7): run the
# explorer's smoke grid and schema-check its BENCH_pr7.json alongside the
# allocation sweep. Set SKIP_EXPLORE=1 to run the allocation gate alone.
if [ "${SKIP_EXPLORE:-0}" != 1 ]; then
  sh "$(dirname "$0")/check_explore_gate.sh" "${2:-BENCH_pr7.json}"
fi
