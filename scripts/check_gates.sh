#!/bin/sh
# The repo's one gate entry point: one benchmark sweep piped through one
# oram-benchjson call that carries every relation the hot path is held to,
# then the explorer grids. The parsed sweep lands in the git-ignored
# bench-gates.json (or $1), so a local run leaves the committed BENCH.json
# alone; each grid's report in $2-<grid>-ci.json (default prefix "explore").
# Every relation is relative, so nothing drifts with host hardware.
#
# Allocation budget (-gate/-max-allocs): the serving path — core access ->
# encrypt -> store (on an L2-resident tree, on one flat-enc shard's 7.7 MB
# cold tree, and with the Section 5 authentication tree), the sharded single-op path and the shard hand-off
# under it, a warm all-hits PLB run,
# the in-order and FR-FCFS timed paths (event rings, skip-mask pool,
# merged-window batch scratch, the per-channel scheduling window), the
# timed recursive access seen from its record side (the timing lane's ring
# with its inline skip masks, and the replay behind it), its untimed twin,
# and the file and file+WAL backends — must not allocate in steady state.
# Budget 1, not 0: short runs can round pool warm-up and RunParallel
# goroutine setup to 1 alloc/op; anything above that is a real
# per-operation allocation.
# BenchmarkAccessStrawmanEncrypted is deliberately outside the gate — the
# Section 2.2.1 strawman allocates per block by design.
#
# Relations (-require):
#  - counter encryption: with the 8-wide AES-NI keystream kernel a
#    counter-encrypted access is ~4x a plaintext one (11x when pads were
#    generated a block at a time), so more than 7x means the kernel has
#    stopped being the path that runs;
#  - memory controller: on an identical 2-shard timed load the FR-FCFS open
#    queue must beat the in-order baseline on modeled cycles/op, row-buffer
#    hit rate AND ops per modeled second, and the simulator's own cost must
#    stay under 2x the host time of an in-order op (it was 4.6x while every
#    issue slot re-decoded its window; the decode-once loop measures ~1x) —
#    both ns/op close with a quiesce of the shards' timing lanes, so they
#    price the replayed model and not only the recording;
#  - the model off the critical path: the timed recursive access
#    (BenchmarkAccessRecursiveDRAM, FR-FCFS + PLB + overlap, its replay
#    running on a second goroutine) must stay under 2x its untimed twin
#    (BenchmarkAccessRecursiveUntimed, the same spec without the memory
#    model), i.e. the DDR3 model no longer sets the pace. On a 2-vCPU Xeon
#    the ratio measured 1.2-1.7 with the model replayed a row run at a
#    time and 1.4-2.6 (median 2.1) before; the bound leaves a margin over
#    the former. It needs a second CPU for the replay goroutine: on one
#    CPU the two halves run in series and the ratio is ~2-2.5 either way;
#  - the shard hand-off: Do on a pool of no-op engines
#    (BenchmarkShardHandoff, one goroutine alternating between two shards)
#    must stay under a tenth of a plaintext access. A request runs on its
#    caller under the shard's lock (~65 ns on a 2-vCPU Xeon against a
#    ~2.6 µs access); handing it to a worker goroutine over a channel
#    cost ~650-1,800 ns and 1 alloc/op;
#  - persistence: the mmap'd file backend must stay within 3x of the
#    in-memory counter-encrypted baseline (same geometry, so the ratio is
#    pure storage overhead), write-ahead logging must cost something on top
#    of the bare file, and paying the epoch barrier inline (checkpoint
#    every 32 ops) must cost more still.
#
# Explorer grids: smoke (2 shard counts x 2 position-map policies x 2
# backends), plb-overlap (PLB budget x Figure 5(b) overlap depth on a
# recursive dram-backed chain), mem-sched (inorder vs FR-FCFS at two queue
# depths) and the
# paper's Figure 7 (Z x stash) and Figure 8 (Z x utilization, whose Z=1
# points above 2/3 full come back as infeasible rows) must each complete,
# validate against the embedded schema, cover their 8 / 4 / 3 / 12 / 40
# configurations and carry a non-empty Pareto frontier over {p99 latency,
# cycles/op, on-chip bytes} with no infeasible row on it.
set -eu

out="${1:-bench-gates.json}"
explore="${2:-explore}"
benchtime="${BENCHTIME:-3000x}"
ops="${EXPLORE_OPS:-512}"
warmup="${EXPLORE_WARMUP:-128}"

{
  go test -run xxx \
    -bench 'BenchmarkAccessMetadataOnly|BenchmarkAccessPlaintext|BenchmarkAccessCounterEncrypted(Cold)?$|BenchmarkAccessCounterWithIntegrity|BenchmarkAccessConstantTimeStash|BenchmarkAccessRecursivePLBHit|BenchmarkShardedThroughput$|BenchmarkShardedThroughputEncrypted|BenchmarkShardedDRAM|BenchmarkSchedInorder2Shard|BenchmarkSchedFRFCFS2Shard|BenchmarkFileBackend|BenchmarkShardHandoff' \
    -benchtime "$benchtime" -benchmem .
  # The timed/untimed pair runs time-based: the ramp to the final b.N wakes
  # the second CPU the replay goroutine needs, where a 3000x run straight
  # after single-threaded benchmarks reads 2-3x slow on a VM (EXPERIMENTS.md,
  # "The model off the request path").
  go test -run xxx -bench 'BenchmarkAccessRecursive(DRAM|Untimed)$' -benchtime 1s -benchmem .
} |
  go run ./cmd/oram-benchjson -out "$out" \
    -gate 'BenchmarkAccessPlaintext|BenchmarkAccessCounterEncrypted(Cold)?$|BenchmarkAccessCounterWithIntegrity|BenchmarkAccessConstantTimeStash|BenchmarkAccessRecursivePLBHit|BenchmarkAccessRecursiveDRAM|BenchmarkAccessRecursiveUntimed|BenchmarkShardedThroughput|BenchmarkSchedInorder2Shard|BenchmarkSchedFRFCFS2Shard|BenchmarkFileBackendAccess|BenchmarkFileBackendWAL$|BenchmarkShardHandoff' \
    -max-allocs 1 \
    -require 'BenchmarkAccessCounterEncrypted:ns/op<7*BenchmarkAccessPlaintext:ns/op' \
    -require 'BenchmarkSchedFRFCFS2Shard:cycles/op<BenchmarkSchedInorder2Shard:cycles/op' \
    -require 'BenchmarkSchedFRFCFS2Shard:row-hit>BenchmarkSchedInorder2Shard:row-hit' \
    -require 'BenchmarkSchedFRFCFS2Shard:ops/modeled-s>BenchmarkSchedInorder2Shard:ops/modeled-s' \
    -require 'BenchmarkSchedFRFCFS2Shard:ns/op<2*BenchmarkSchedInorder2Shard:ns/op' \
    -require 'BenchmarkAccessRecursiveDRAM:ns/op<2*BenchmarkAccessRecursiveUntimed:ns/op' \
    -require 'BenchmarkShardHandoff:ns/op<0.1*BenchmarkAccessPlaintext:ns/op' \
    -require 'BenchmarkFileBackendAccess:ns/op<3*BenchmarkAccessCounterEncrypted:ns/op' \
    -require 'BenchmarkFileBackendAccess:ns/op<BenchmarkFileBackendWAL:ns/op' \
    -require 'BenchmarkFileBackendWAL:ns/op<BenchmarkFileBackendWALEpochFlush:ns/op'

echo "wrote $out"

# One closed-loop client (no -clients), so every non-wall metric of these
# reports is a function of the seed.
for grid in smoke:8 plb-overlap:4 mem-sched:3 fig7:12 fig8:40; do
  report="$explore-${grid%:*}-ci.json"
  go run ./cmd/oram-explore -grid "${grid%:*}" -ops "$ops" -warmup "$warmup" -seed 1 -out "$report"
  go run ./cmd/oram-explore -check "$report" -min-configs "${grid#*:}"
  echo "wrote $report"
done
