#!/bin/sh
# Runs the memory-controller scheduling comparison (PR 9) and holds it to
# the acceptance gate: on an identical 2-shard timed load, the FR-FCFS
# open command queue must beat the in-order baseline on modeled cycles
# per op, row-buffer hit rate, AND ops per modeled second — relative
# assertions, so the gate does not drift with host hardware. The
# simulator's own cost is gated the same way: an FR-FCFS op must take
# under 2x the host time of an in-order op (it was 4.6x while every issue
# slot re-decoded its window and diffed the counters by reflection; the
# decode-once loop measures about 1x). The queued hot path is
# simultaneously held to the zero-allocation budget (same rationale as
# check_alloc_gate.sh: budget 1 absorbs warm-up rounding).
# The parsed results land in BENCH_pr9.json (or $1).
set -eu

out="${1:-BENCH_pr9.json}"
benchtime="${BENCHTIME:-3000x}"

go test -run xxx -bench 'BenchmarkSchedInorder2Shard|BenchmarkSchedFRFCFS2Shard' \
  -benchtime "$benchtime" -benchmem . |
  go run ./cmd/oram-benchjson -out "$out" \
    -gate 'BenchmarkSchedInorder2Shard|BenchmarkSchedFRFCFS2Shard' \
    -max-allocs 1 \
    -require 'BenchmarkSchedFRFCFS2Shard:cycles/op<BenchmarkSchedInorder2Shard:cycles/op' \
    -require 'BenchmarkSchedFRFCFS2Shard:row-hit>BenchmarkSchedInorder2Shard:row-hit' \
    -require 'BenchmarkSchedFRFCFS2Shard:ops/modeled-s>BenchmarkSchedInorder2Shard:ops/modeled-s' \
    -require 'BenchmarkSchedFRFCFS2Shard:ns/op<2*BenchmarkSchedInorder2Shard:ns/op'

echo "wrote $out"
