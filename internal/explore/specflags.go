// Package explore is the design-space exploration engine behind
// cmd/oram-explore -grid: a workload generator suite, a sweep runner that
// drives every configuration point through the public Client API, and a
// Pareto pass over the collected metrics (latency, modeled cycles,
// on-chip bytes). Run is the repository's one closed-loop measurement
// driver: it fills a point, warms it up and measures it, on one client or
// fanned out over several (Options.Clients). The package also owns the
// text form of pathoram.Spec — the flag set cmd/oram-server parses and a
// Grid sweeps — so the service and the grids cannot drift on flag names.
package explore

import (
	"flag"
	"math/rand"
	"strconv"

	pathoram "repro"
)

// BindSpec registers the text form of pathoram.Spec on fs: one flag per
// field, each writing straight into spec, whose current values are the
// defaults. 0 on a numeric knob selects the Spec default. Nothing is
// checked here: a flag that is inert on the selected axis values is
// rejected by pathoram's rule table, in Spec vocabulary, when the Spec is
// validated or opened.
func BindSpec(fs *flag.FlagSet, spec *pathoram.Spec) {
	fs.Uint64Var(&spec.Blocks, "blocks", spec.Blocks, "total logical blocks")
	fs.IntVar(&spec.BlockSize, "blocksize", spec.BlockSize, "block payload bytes (0 = metadata only)")

	fs.IntVar(&spec.Shards, "shards", spec.Shards, "independent trees behind the request scheduler (0 = 1)")
	fs.TextVar(&spec.Partition, "partition", spec.Partition, "address partition: stripe|range|random (random hides request->shard routing)")
	fs.BoolVar(&spec.Padded, "padded", spec.Padded, "padded batch mode: every batch touches every shard equally often (requires batched submission)")
	fs.IntVar(&spec.EvictionsPerIdle, "idle-evictions", spec.EvictionsPerIdle, "max background evictions per idle gap (0 = 4, negative disables; with -async)")

	fs.TextVar(&spec.PosMap, "posmap", spec.PosMap, "position map: flat (on-chip, 4B/block) | recursive (per-shard hierarchical ORAM chain, Section 2.3)")
	fs.IntVar(&spec.PosBlockSize, "pos-block", spec.PosBlockSize, "position-map ORAM block size in bytes (0 = 32; with -posmap recursive)")
	fs.Uint64Var(&spec.OnChipPosMapMax, "onchip-max", spec.OnChipPosMapMax, "per-shard bound on the final on-chip position map in bytes (0 = 200 KB; with -posmap recursive)")
	fs.IntVar(&spec.PosZ, "pos-z", spec.PosZ, "position-map ORAM bucket capacity (0 = 3; with -posmap recursive)")
	fs.Uint64Var(&spec.PLBBytes, "plb-bytes", spec.PLBBytes, "position-map lookaside cache budget per shard in bytes, split across the chain's interfaces; hits skip the elided levels (0 = off; with -posmap recursive)")
	fs.BoolVar(&spec.PLBConstantShape, "plb-constant-shape", spec.PLBConstantShape, "pad PLB hits with dummy accesses to the elided levels so hits and misses look identical on the wire (with -plb-bytes)")
	fs.IntVar(&spec.Overlap, "overlap", spec.Overlap, "Figure 5(b) speculative chain overlap: up to N consecutive requests pipeline across the recursion chain (0 = serial 5(a); with -posmap recursive -backend dram)")

	fs.IntVar(&spec.Z, "z", spec.Z, "data bucket capacity in blocks (0 = 3)")
	fs.Float64Var(&spec.Utilization, "utilization", spec.Utilization, "blocks per tree slot, in (0,1] (0 = 0.5)")
	fs.IntVar(&spec.LeafLevel, "leaf-level", spec.LeafLevel, "data tree depth override (0 = derived from -utilization)")
	fs.IntVar(&spec.StashCapacity, "stash", spec.StashCapacity, "stash capacity per tree in blocks (0 = 200)")
	fs.BoolVar(&spec.ConstantTimeStash, "ct-stash", spec.ConstantTimeStash, "constant-time stash scans: fixed-length masked lookups on every tree (closes the stash timing channel)")
	fs.IntVar(&spec.SuperBlockSize, "superblock", spec.SuperBlockSize, "adjacent blocks merged into one super block (0 or 1 = off)")
	fs.TextVar(&spec.Encryption, "encrypt", spec.Encryption, "bucket encryption: counter|strawman|none")
	fs.BoolVar(&spec.Integrity, "integrity", spec.Integrity, "enable the authentication tree")

	fs.BoolVar(&spec.AsyncEviction, "async", spec.AsyncEviction, "staged access path: respond after the path read, write back and evict between requests")
	fs.IntVar(&spec.MaxDeferredWriteBacks, "max-deferred", spec.MaxDeferredWriteBacks, "deferred write-back queue depth = modeled write-buffer depth (0 = 8; with -async)")

	fs.TextVar(&spec.Backend, "backend", spec.Backend, "bucket storage: mem (untimed) | dram (shared cycle-accurate DDR3 model; adds the modeled-cycle columns) | file (one mmap'd tree file per ORAM under -dir, msync on Flush)")
	fs.StringVar(&spec.Dir, "dir", spec.Dir, "directory holding the tree files (with -backend file)")
	fs.BoolVar(&spec.WAL, "wal", spec.WAL, "write-ahead log: path writes are logged before ack and checkpointed into the tree file on Flush, making the deferred write-back pipeline crash-consistent (with -backend file)")
	fs.IntVar(&spec.WALDepth, "wal-depth", spec.WALDepth, "auto-checkpoint after this many logged path writes (0 = checkpoint only on Flush/close; with -wal)")
	fs.IntVar(&spec.DRAMChannels, "channels", spec.DRAMChannels, "independent DDR3 channels shared by all shards (0 = 2; with -backend dram)")
	fs.TextVar(&spec.DRAMLayout, "layout", spec.DRAMLayout, "bucket-to-row placement: subtree|naive (with -backend dram)")
	fs.BoolVar(&spec.DRAMSerialize, "dram-serialize", spec.DRAMSerialize, "modeling baseline: forbid inter-shard overlap on the memory channels (with -backend dram)")
	fs.TextVar(&spec.DRAMSched, "mem-sched", spec.DRAMSched, "memory-controller scheduling: inorder | frfcfs (open per-channel command queue, row hits first; with -backend dram)")
	fs.IntVar(&spec.DRAMQueueDepth, "mem-queue", spec.DRAMQueueDepth, "per-channel command-queue depth (0 = 8; depth 1 reproduces inorder exactly; with -mem-sched frfcfs)")
	fs.IntVar(&spec.DRAMStarveCap, "starve-cap", spec.DRAMStarveCap, "row-hit bypasses before the oldest request is forced (0 = 4; with -mem-sched frfcfs)")

	fs.Var(&seedFlag{rand: &spec.Rand}, "seed", "deterministic ORAM randomness when != 0")
}

// seedFlag is -seed. Set installs a fresh generator (none for 0), and
// String keeps the number, so setting the flag to its own text again
// restarts the stream: every construction must own its generator.
type seedFlag struct {
	n    int64
	rand **rand.Rand
}

func (s *seedFlag) String() string { return strconv.FormatInt(s.n, 10) }

func (s *seedFlag) Set(v string) error {
	n, err := strconv.ParseInt(v, 0, 64)
	if err != nil {
		return err
	}
	s.n, *s.rand = n, nil
	if n != 0 {
		*s.rand = rand.New(rand.NewSource(n))
	}
	return nil
}
