// Package pathoram is a Go implementation of Path ORAM optimized for
// secure processors, reproducing Ren, Yu, Fletcher, van Dijk and Devadas,
// "Design Space Exploration and Optimization of Path Oblivious RAM in
// Secure Processors" (ISCA 2013), grown into a concurrent, sharded
// oblivious block-serving layer.
//
// An ORAM stores fixed-size blocks in an untrusted external memory such
// that the sequence of memory locations touched is computationally
// independent of the program's access pattern. This package provides:
//
//   - the Path ORAM engine (New) with the paper's optimizations: provably
//     secure background eviction (Section 3.1), static super blocks
//     (Section 3.2) and the exclusive Load/Store interface for
//     cache-attached use (Section 3.3.1);
//   - randomized bucket encryption: the counter-based scheme of Section
//     2.2.2 (default) or the strawman of Section 2.2.1;
//   - integrity verification via the mirrored authentication tree of
//     Section 5 (tamper and replay detection with no initialization pass);
//   - the hierarchical construction of Section 2.3, which stores the
//     position map in recursively smaller ORAMs (PosMap: PosMapRecursive)
//     — the same engine: a flat ORAM is the chain of length one;
//   - a sharded, concurrency-safe serving layer (NewSharded): the address
//     space partitioned over N independent Path ORAM shards behind a
//     batched request scheduler, with optional oblivious request routing
//     (PartitionRandom) and padded, fixed-shape batch schedules
//     (Spec.Padded);
//   - a staged access path (Spec.AsyncEviction): respond after path
//     read and stash merge, defer write-back I/O to idle time —
//     Section 3.1.1's background eviction and the
//     Figure 5 phase-overlap study applied to the serving layer;
//   - a timed storage backend (Spec.Backend: BackendDRAM): every
//     shard's bucket I/O charged to one shared cycle-accurate DDR3 model
//     behind a memory-channel scheduler, so the serving layer reports
//     modeled hardware cycles, row-hit rates and bandwidth (TimingStats)
//     — the paper's design-space currency — while staying bit-identical
//     to the untimed backend;
//   - a unified client API: the Client interface, satisfied by the
//     engine ORAM and by Sharded alike, and one configuration type, Spec,
//     which composes the design-space axes — Shards: N, PosMap:
//     OnChip|Recursive, Backend: mem|dram|file — so sharded ORAMs with
//     recursive position maps on a shared timed memory bus are one
//     literal. Every constructor (Open, New, NewSharded)
//     takes it and runs the same steps: resolve (defaults, one table of
//     knob rules, key, memory bus), newEngine (size and assemble one
//     chain) and buildTree (one tree's storage stack, once per level).
//     Hierarchical shards attach one membus port per level, so the
//     recursion's Figure 5 orderings come from live recursive traffic,
//     and the paper's Figures 5 and 11 and Table 2 replay paper-scale
//     hierarchies on the same membus chain;
//   - pluggable persistent storage (Spec.Backend: BackendFile, Spec.WAL):
//     the ciphertext tree in an mmap'd file with an optional write-ahead
//     log, so the deferred write-back pipeline survives crashes — and a
//     multi-tenant HTTP front end (cmd/oram-server) with per-tenant
//     derived keys and graceful SIGTERM drain.
//
// # Architecture
//
// Protocol correctness lives in single-threaded code; concurrency lives in
// one place, the shard scheduler. The package map, with the paper sections
// each piece reproduces:
//
//   - internal/treemath — binary-tree index arithmetic: bucket numbering,
//     path enumeration, the common-path-length metric (Section 2.1).
//   - internal/core — the Path ORAM protocol: stash, greedy path eviction,
//     background eviction (Section 3.1), super blocks (Section 3.2), the
//     exclusive Load/Store interface (Section 3.3.1), position maps and
//     leaf sources. Deliberately lock-free and single-threaded.
//   - internal/encrypt — the two randomized bucket-encryption schemes
//     (Sections 2.2.1 and 2.2.2) and the encrypting path store.
//   - internal/integrity — the mirrored authentication tree (Section 5).
//   - internal/hierarchy — the recursive position-map construction
//     (Sections 2.3 and 3.3.3), a full serving-layer engine: per-level
//     deferred write-backs, chain-order padding accesses, coordinated
//     background rounds.
//   - internal/shard — the serving layer's request scheduler: one lock per
//     shard owning one engine exclusively (flat trees and hierarchies
//     alike), every request run on its caller's goroutine, with
//     first-class dummy requests for padded schedules and exclusive
//     Load/Store ops.
//   - internal/placement — bucket-to-DRAM address layouts, including the
//     subtree packing of Section 3.3.4 (Figure 6), used by internal/membus.
//   - internal/dram — an event-driven DDR3 timing model standing in for
//     DRAMSim2 (Section 4.2), reached through internal/membus by the
//     serving layer and the paper's DRAM figures alike (Figure 11).
//   - internal/membus — the shared memory-channel scheduler of the timed
//     serving layer: one dram.System for all trees, per-tree ports with
//     subtree/naive layouts (one port per hierarchy level, the shard's
//     ports sharing one dependency chain that the bus resolves as stages
//     retire), so different shards' path reads and write-backs interleave
//     on the modeled channels (the Figure 5 orderings between shards).
//   - internal/cache, internal/cpu — the processor model of Table 1: the
//     exclusive L1/L2 hierarchy and the in-order core timing model whose
//     line memory is DRAM or ORAM (Sections 3.3.1 and 4.3). The
//     set-associative LRU in internal/cache is also the PLB's.
//   - internal/trace — synthetic instruction/memory streams standing in
//     for the SPEC2006 traces (Section 4.3, Figure 12).
//   - internal/hide — the HIDE-style chunk permuter used as the paper's
//     Section 6.2 comparison point.
//   - internal/analysis — the paper's analytical storage/overhead model
//     (Equations 1-2, Sections 2.2-2.4 and 3.1.4).
//   - internal/stats — histograms and running summaries for the
//     experiment harnesses (Figure 3's tail probabilities).
//   - internal/storage — the bucket-granularity persistence seam under
//     internal/encrypt: an in-memory arena, the mmap'd flat tree file,
//     and the write-ahead log that makes acknowledged deferred
//     write-backs crash-durable (checkpoint = log fsync, apply, msync,
//     truncate).
//   - internal/service — the multi-tenant HTTP serving layer behind
//     cmd/oram-server: one Client per tenant under a domain-separated
//     derived key, JSON and streaming NDJSON batch endpoints, graceful
//     drain.
//   - internal/exp — every figure and table of the evaluation: the
//     protocol figures are internal/explore grid presets rendered here,
//     the rest keep a runner; cmd/oram-explore prints them (-grid, -paper),
//     and its -grid -clients N drives the sharded serving layer under
//     concurrent closed-loop load.
//
// The serving layer's threat model — what an adversary observing per-shard
// traffic and request routing learns under each partition and batch mode —
// is written out in SECURITY.md; DESIGN.md covers the architecture and
// EXPERIMENTS.md maps the paper's evaluation (and the serving-layer
// additions) to runnable harnesses.
package pathoram
