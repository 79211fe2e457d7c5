package pathoram

import (
	"fmt"
	"math/rand"
)

// Client is the unified interface every top-level construction satisfies:
// the engine ORAM — a flat tree, or with a recursive position map (Section
// 2.3) a chain of them — and the sharded serving layer Sharded — and
// therefore every point of the paper's design space reachable through
// Open. Code written against Client composes the axes freely: the same
// workload runs against a flat tree, a recursive chain, or a sharded fleet
// of either, timed or untimed, by changing only the Spec that built the
// client.
//
// Concurrency: a Client built by Open is always safe for concurrent use
// (Open returns the serving layer). The bare constructor New (and
// NewHierarchy, the same call) returns a single-threaded Client — one
// goroutine must own it, which is exactly the ownership the serving layer
// enforces when it uses engines as shards.
type Client interface {
	// Read returns a copy of the block at addr (zero-filled if never
	// written). One oblivious access — one path per ORAM the construction
	// walks.
	Read(addr uint64) ([]byte, error)
	// ReadInto reads the block at addr into the caller-provided dst
	// (BlockBytes long), avoiding Read's per-call result allocation —
	// this is the allocation-free hot-path read. found reports whether
	// the block was ever written (always true under PartitionRandom,
	// whose relocation leg materializes every block it touches).
	ReadInto(addr uint64, dst []byte) (found bool, err error)
	// Write replaces the block at addr. One oblivious access.
	Write(addr uint64, data []byte) error
	// Update applies fn to the block's content in place in one oblivious
	// read-modify-write access.
	Update(addr uint64, fn func(data []byte)) error
	// Load is the exclusive read of Section 3.3.1: the block (and its
	// resident super-block group) is removed and handed to the caller.
	Load(addr uint64) (data []byte, found bool, group []Block, err error)
	// Store returns a checked-out block — straight into a stash, no path
	// access.
	Store(addr uint64, data []byte) error
	// ReadBatch reads every address in one submission; results stay in
	// input order. Sharded clients fan batches out across shards.
	ReadBatch(addrs []uint64) ([][]byte, error)
	// WriteBatch writes data[i] to addrs[i] in one submission.
	WriteBatch(addrs []uint64, data [][]byte) error
	// PaddingAccess performs one scheduler-padding dummy access,
	// indistinguishable on the memory bus from a real single operation.
	PaddingAccess() error
	// StepBackground performs one unit of deferred work (write-back
	// completion, or background eviction when allowed) and reports which.
	StepBackground(allowEviction bool) (BackgroundWork, error)
	// Flush completes all deferred work, leaving a state the synchronous
	// protocol could have produced that holds until the next request.
	Flush() error
	// PendingWriteBacks counts deferred path write-backs not yet
	// completed.
	PendingWriteBacks() int
	// Stats returns the aggregate protocol counters (merged across
	// shards and hierarchy levels).
	Stats() Stats
	// ResetStats clears the protocol counters (occupancy gauges survive).
	ResetStats()
	// TimingStats returns the modeled memory-timing counters; the bool is
	// false when the construction runs untimed (BackendMem).
	TimingStats() (TimingStats, bool)
	// StashSize returns the current stash occupancy in blocks, summed
	// over every stash the construction owns.
	StashSize() int
	// OnChipBytes returns the construction's total trusted-memory
	// provision: on-chip position maps plus the static stash bounds of
	// every tree. One of the paper's design-space objectives — fixed at
	// construction, so it never serializes against traffic.
	OnChipBytes() uint64
	// ExternalMemoryBytes returns the external storage footprint.
	ExternalMemoryBytes() uint64
	// Close quiesces the client. Sharded clients drain in-flight work and
	// stop their idle pumps (further operations fail with ErrClosed);
	// single-threaded clients flush and remain usable.
	Close() error
}

// Every top-level construction satisfies Client.
var (
	_ Client = (*ORAM)(nil)
	_ Client = (*Sharded)(nil)
)

// validateAddrs is the shared up-front batch validation: an out-of-range
// address fails the whole batch before any path is touched.
func validateAddrs(addrs []uint64, blocks uint64) error {
	for _, a := range addrs {
		if a >= blocks {
			return fmt.Errorf("pathoram: address %d out of range [0,%d)", a, blocks)
		}
	}
	return nil
}

// serialReadBatch implements the single-threaded half of the shared batch
// contract (an engine runs requests back to back on the calling goroutine;
// Sharded fans out instead): validate up front, then execute
// every request, returning the first per-request failure with nil at
// failed slots.
func serialReadBatch(addrs []uint64, blocks uint64, read func(uint64) ([]byte, error)) ([][]byte, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	if err := validateAddrs(addrs, blocks); err != nil {
		return nil, err
	}
	results := make([][]byte, len(addrs))
	var first error
	for i, a := range addrs {
		out, err := read(a)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		results[i] = out
	}
	return results, first
}

// serialWriteBatch is serialReadBatch's write half: same validation and
// error contract; later writes to a duplicated address win, matching
// slice order.
func serialWriteBatch(addrs []uint64, data [][]byte, blocks uint64, write func(uint64, []byte) error) error {
	if len(addrs) != len(data) {
		return fmt.Errorf("pathoram: %d addresses for %d payloads", len(addrs), len(data))
	}
	if err := validateAddrs(addrs, blocks); err != nil {
		return err
	}
	var first error
	for i, a := range addrs {
		if err := write(a, data[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PosMapPolicy selects where a Spec's position map lives — the recursion
// axis of the design space (Section 2.3).
type PosMapPolicy int

const (
	// PosMapOnChip keeps each shard's whole position map in trusted
	// memory: one flat Path ORAM per shard — a chain of length one — and
	// 4 bytes of on-chip state per block. The default.
	PosMapOnChip PosMapPolicy = iota
	// PosMapRecursive stores each shard's position map in a second,
	// smaller ORAM, recursively, until the final map fits in
	// OnChipPosMapMax bytes. Every access then walks the whole chain,
	// smallest ORAM first — on-chip state shrinks from O(N) to the fixed
	// cap at the price of H path accesses per operation. (A map that
	// already fits is a chain of one ORAM, like PosMapOnChip's.)
	PosMapRecursive
)

// posMapNames spells PosMapPolicy as text (-posmap).
var posMapNames = []string{"flat", "recursive"}

func (p PosMapPolicy) String() string                { return enumName(posMapNames, p) }
func (p PosMapPolicy) MarshalText() ([]byte, error)  { return []byte(p.String()), nil }
func (p *PosMapPolicy) UnmarshalText(b []byte) error { return parseEnum(posMapNames, b, p) }

// Spec is the declarative construction specification — the paper's design
// point (DZ3Pb32 and friends) as one literal, and the only configuration
// type of the package: every constructor takes it. The three composition
// axes are
//
//	Shards:  how many independent trees serve the address space (the
//	         concurrency axis; 0/1 = a single tree behind the scheduler),
//	PosMap:  where the position map lives (the recursion axis —
//	         PosMapOnChip for flat trees, PosMapRecursive for a
//	         hierarchy per shard),
//	Backend: what the buckets cost (the timing axis — BackendMem for
//	         untimed functional serving, BackendDRAM to charge every
//	         bucket of every tree to one shared cycle-accurate DDR3
//	         model, BackendFile to persist them).
//
// Everything else parameterizes the trees themselves (sizes, encryption,
// integrity, the staged access path) or the scheduler (partition, queue
// depth, padded batches). A knob that would be inert on the selected axis
// values is rejected, never ignored, so a design-space sweep cannot vary a
// field that changes nothing. A sharded recursive spec builds one chain
// per shard: per-shard keys derive from Key via the shard domain
// and per-level keys from those via the hierarchy domain, so no two trees
// anywhere share one-time pads; under BackendDRAM every level of every
// shard attaches its own port (disjoint physical region) to one shared
// memory bus.
type Spec struct {
	// Blocks is the total logical address space, addresses 0..Blocks-1
	// (required). Sharded constructions split it across the shards by
	// Partition; every other tree parameter applies to each shard's tree.
	Blocks uint64
	// BlockSize is the block payload in bytes (128 in the paper). Zero
	// selects metadata-only mode (no payloads; protocol simulation), which
	// leaves a flat tree nothing to encrypt.
	BlockSize int

	// Shards is the number of independent per-shard engines, each owned by
	// its own lock behind the request scheduler (default 1;
	// must not exceed Blocks). New builds one bare engine and rejects the
	// serving-layer knobs of this group.
	Shards int
	// Partition selects the address split across shards (default
	// PartitionStripe; PartitionRandom hides request routing).
	Partition Partition
	// Padded switches ReadBatch/WriteBatch to the padded batch mode: every
	// batch touches every shard an equal number of times — the larger of
	// ceil(batchSize/Shards) and the busiest shard's real demand — with
	// scheduler-issued dummy accesses (real random-path accesses) filling
	// the empty slots, so an observer of the shard schedule cannot tell
	// which slots carried real requests. Under PartitionRandom the whole
	// shape is additionally independent of the requested addresses; under
	// the fixed partitions its height still tracks the busiest shard (see
	// DESIGN.md's decision table). Padding overhead is counted in
	// Stats.PaddingAccesses. Single operations are never padded.
	Padded bool
	// PosMap selects the position-map policy (default PosMapOnChip;
	// NewHierarchy implies PosMapRecursive). Every policy builds the same
	// engine; what the value selects is listed in DESIGN.md ("One engine").
	PosMap PosMapPolicy
	// PosBlockSize is the position-map ORAM block size under
	// PosMapRecursive (default 32, the paper's best practical choice,
	// Section 3.3.3).
	PosBlockSize int
	// OnChipPosMapMax bounds each shard's final on-chip map in bytes
	// under PosMapRecursive (default 200 KB, Section 4.1.5; the bound is
	// per shard).
	OnChipPosMapMax uint64
	// PosZ is the position-map ORAM bucket capacity under PosMapRecursive
	// (default 3; the paper's DZ3Pb32 uses Z 3 and PosZ 3).
	PosZ int
	// PLBBytes provisions the position-map lookaside cache of Section
	// 3.3.3 per shard under PosMapRecursive: a small set-associative
	// write-back LRU of group→leaf labels in front of every position-map
	// interface (the byte budget splits evenly across them). A hit makes
	// the cached label authoritative and skips the backing access and
	// every smaller ORAM above it — the chain-shortening acceleration the
	// paper pairs with recursion. Dirty evictions and Flush write the
	// exact cached label back, so logical state stays bit-identical to the
	// uncached protocol. 0 disables. The default mode leaks chain length
	// per access (SECURITY.md); see PLBConstantShape.
	PLBBytes uint64
	// PLBConstantShape pads every PLB hit with dummy-shaped accesses to
	// the elided levels so hits and misses are indistinguishable on the
	// wire — the oblivious endpoint of the PLB axis. Requires PLBBytes > 0.
	PLBConstantShape bool
	// Overlap enables the Figure 5(b) speculative cross-request overlap
	// under PosMapRecursive + BackendDRAM: the chain scheduler keeps the
	// last Overlap rounds' data-ORAM completions in a window, and a new
	// round's smallest-ORAM stages may issue as soon as the oldest
	// windowed round completed — request t+1's posmap walk overlaps
	// request t's data access. Within one round the Figure 5(a)
	// dependency is preserved: a level never issues before the posmap
	// stage that named its path completed. Each level's port also accepts
	// two stages in flight, so one round's write-back overlaps the next
	// round's read of the same tree. 0 keeps the strictly serial 5(a)
	// chain clock. Contradicts DRAMSerialize.
	Overlap int

	// Z is the (data) bucket capacity (default 3, the paper's sweet spot
	// for large ORAMs; small ORAMs may prefer 2 — see Figure 9).
	Z int
	// Utilization is the target fill of each data tree, in (0,1] (default
	// 0.5, Section 4.1.3): the engine wants about Blocks/Utilization slots
	// and picks a depth by one of two rules. A PosMapOnChip tree is the
	// shallowest that reaches them, so its real fill, Blocks / (Z * bucket
	// count), is at or under the target (33% for the default Z 3 on a
	// power-of-two Blocks); a PosMapRecursive data tree takes the depth
	// nearest them in log space, never below capacity, so its fill may sit
	// up to 1.41x over the target (67% there). TestSpecDataTreeSizingRules
	// pins both; DESIGN.md ("One engine") records why they differ. Ignored
	// when LeafLevel is set.
	Utilization float64
	// LeafLevel overrides the derived (data) tree depth when > 0, sizing
	// every shard's tree alike — the statistical tests pin tree geometry
	// with it.
	LeafLevel int
	// StashCapacity is C per ORAM in blocks (default 200, Section 4.1.2).
	// The background eviction of Section 3.1 keeps occupancy at or below
	// C - Z(L+1) between accesses, so the stash cannot overflow.
	StashCapacity int
	// ConstantTimeStash replaces the stash's early-return lookup scans
	// with fixed-length masked scans (crypto/subtle) over a preallocated
	// window on every tree in the construction, so where — and whether — a
	// block sits in the stash changes neither the instruction count nor
	// the memory-touch count of an access. This closes the stash timing
	// side channel of the secure-processor threat model (SECURITY.md);
	// results are bit-identical to the default mode. Costs a full-window
	// scan per lookup: with the default C=200 stash a modest constant per
	// access.
	ConstantTimeStash bool
	// SuperBlockSize statically merges groups of adjacent (data) blocks
	// (Section 3.2); 0 or 1 disables merging. Super blocks group
	// shard-local adjacency: combine with PartitionRange when they should
	// capture program locality.
	SuperBlockSize int
	// Encryption selects the bucket encryption of every tree (default
	// counter-based).
	Encryption Encryption
	// Integrity enables the Section 5 authentication tree per tree: every
	// path read is verified for authenticity and freshness.
	Integrity bool
	// Key is the 16-byte processor secret; a fresh random key is drawn
	// when nil (the paper draws a new key per program run to defeat replay
	// of old ciphertexts). A bare New encrypts under it directly; every
	// shard, and every hierarchy level within an engine, encrypts under an
	// independently derived AES-128 subkey — CounterScheme's pad depends
	// only on (key, bucketID, counter) and every tree numbers its buckets
	// from zero, so sharing one key would reuse one-time pads. Whenever a
	// tree encrypts, any other length is rejected rather than silently
	// downgrading an intended AES-256 setup.
	Key []byte

	// AsyncEviction enables the staged access path on every tree:
	// Read/Write/Update return as soon as every path has been read and
	// merged and the eviction placement computed; the write-back I/O
	// (serialization, encryption, authentication, store write) is deferred
	// onto a bounded per-tree queue. Who completes it: an untimed shard's
	// idle pump completes owed write-backs between requests; a
	// BackendDRAM tree has no pump, so its queue — the modeled write
	// buffer — drains when full, at Flush and at snapshots (Stats,
	// ShardStats, StashSize, TimingStats), in stream order, and its
	// modeled time stays a function of the seed; the owner of a bare
	// engine calls StepBackground (e.g. between requests) and Flush when
	// quiescing. Background eviction runs inline once a stash passes its
	// threshold, and in idle time only through StepBackground(true).
	// Snapshots and Close flush first, so observed state always matches
	// the synchronous protocol. Logical contents are never stale — reads
	// of paths with pending write-backs are served from the write buffer
	// — and the stash bound still holds: if deferred work piles up faster
	// than idle time drains it, draining falls back inline, degrading to
	// the synchronous protocol rather than failing. See DESIGN.md
	// (pipelining) and SECURITY.md (why the idle-time schedule leaks
	// nothing).
	AsyncEviction bool
	// MaxDeferredWriteBacks caps each tree's deferred write-back queue
	// (default core.DefaultMaxDeferredWriteBacks). Requires AsyncEviction.
	// With BackendDRAM the queue is exactly the modeled memory
	// controller's write buffer, so this knob is the write-buffer-depth
	// experiment: deeper buffers group write-backs together (fewer
	// read/write bus turnarounds, more write-buffer read hits) at the
	// price of more pinned path copies. See EXPERIMENTS.md.
	MaxDeferredWriteBacks int

	// Backend selects the bucket storage backend of every tree (default
	// BackendMem). BackendDRAM wraps each store in a timed layer on ONE
	// shared memory bus — one port per tree, so every shard and every
	// hierarchy level owns a disjoint row-aligned region and concurrent
	// shards contend for the same modeled channels and banks, the
	// multi-channel deployment the paper analyzes; TimingStats then
	// reports modeled cycles for the whole construction.
	Backend Backend
	// Dir is the directory holding the tree (and WAL) files under
	// BackendFile: one file per tree, named "oram" for a bare engine and
	// "shard<i>" per shard, with a "-l<level>" suffix per hierarchy level.
	// Required there, rejected elsewhere: a directory that silently does
	// nothing would be an inert knob.
	Dir string
	// WAL wraps every tree file in a write-ahead log under BackendFile
	// (internal/storage.WAL): every path write-back is logged before it is
	// acknowledged, Flush checkpoints the log into the tree file and
	// truncates it, and reopening after a crash replays the logged prefix
	// — the deferred write-back pipeline becomes crash-consistent.
	WAL bool
	// WALDepth self-checkpoints each tree's log after that many path
	// frames (0 = only on Flush/Close). Requires WAL.
	WALDepth int
	// DRAMChannels is the number of independent DDR3 channels under
	// BackendDRAM (0 = default 2; the paper sweeps 1/2/4).
	DRAMChannels int
	// DRAMLayout selects the bucket-to-row placement under BackendDRAM
	// (default LayoutSubtree, the paper's packed-subtree layout).
	DRAMLayout DRAMLayout
	// DRAMSerialize is a modeling baseline under BackendDRAM: issue every
	// tree's memory stages at the global completion frontier, forbidding
	// any overlap between different shards' path reads and write-backs. It
	// exists so the intra-access-overlap gain of the shared scheduler is
	// measurable (EXPERIMENTS.md); leave it false for the actual model.
	DRAMSerialize bool
	// DRAMSched selects the controller's command scheduling under
	// BackendDRAM: MemSchedInOrder (default) or MemSchedFRFCFS, the open
	// per-channel queue that reorders for row-buffer locality and
	// bank-level parallelism.
	DRAMSched MemSched
	// DRAMQueueDepth is the open-queue window per channel under
	// MemSchedFRFCFS (0 = default 8; depth 1 reproduces in-order issue
	// exactly).
	DRAMQueueDepth int
	// DRAMStarveCap bounds how many times younger row hits may bypass the
	// oldest queued request under MemSchedFRFCFS before it is forced
	// (0 = default 4).
	DRAMStarveCap int

	// Rand, when set, makes all randomness (leaf selection, per-block
	// keys, routing) deterministic for reproducible simulation; production
	// use must leave it nil, and leaves then come from crypto/rand. A bare
	// engine consumes it directly. The serving layer never shares one
	// generator across shards (math/rand generators are not
	// goroutine-safe): it seeds an independent generator per shard from
	// draws on this one, in shard order, then one for the router and one
	// for padding — so a fixed parent seed reproduces the whole sharded
	// simulation.
	Rand *rand.Rand
	// OnPathAccess, when set, observes every path every tree touches, in
	// order, real and dummy alike — the adversary's full view: shard is
	// the serving shard (0 for a bare engine), level the ORAM within its
	// chain (0 = data ORAM; always 0 for PosMapOnChip). It runs
	// synchronously on the goroutine holding the shard's lock, so
	// distinct shards invoke it concurrently (per-shard accumulators
	// indexed by the shard argument need no locking).
	OnPathAccess func(shard, level int, leaf uint64)
}

// Config is the pre-Spec name of the flat-tree configuration, kept as an
// alias so existing New(Config{...}) literals keep compiling.
type Config = Spec

// LeakageClass tags what a composition leaks beyond the Path ORAM
// guarantee, factored along the two independent channels SECURITY.md's
// matrices analyze: what the request routing reveals to an adversary
// watching the shard schedule (A2), and what the stash scan's timing
// reveals to a co-resident adversary timing the controller (A1t). The
// design-space explorer reports it per config point so frontier tables
// compare like with like — a point is only better if it wins an objective
// without giving up a leakage class.
type LeakageClass struct {
	// Routing is what the request→shard schedule reveals, per the
	// SECURITY.md partition×mode table: "none" (single tree, or
	// random+padded — the schedule is a function of secret coins),
	// "reaccess-corr" (random, plain: only the same-block re-access
	// correlation), "demand-shape" (fixed partition, padded batches: the
	// schedule height tracks the busiest shard), "addr-bits" (stripe,
	// plain: log2 N address bits per request) or "addr-range" (range,
	// plain: coarse address bits per request).
	Routing string
	// Stash is what the stash scan's timing reveals: "scan-timing"
	// (default early-exit scans leak hit index and hit-vs-miss to A1t) or
	// "constant-time" (fixed-window masked scans close the channel).
	Stash string
}

// String renders the class in the compact "routing=…,stash=…" form the
// explorer's tables and BENCH_*.json use.
func (l LeakageClass) String() string {
	return "routing=" + l.Routing + ",stash=" + l.Stash
}

// LeakageClass classifies what the construction this Spec describes leaks,
// per SECURITY.md's matrices. It is a pure function of the composition
// axes (Partition, Padded, Shards, ConstantTimeStash) — no construction
// required — so sweeps can tag every grid point up front.
func (s Spec) LeakageClass() LeakageClass {
	l := LeakageClass{Routing: "none", Stash: "scan-timing"}
	if s.ConstantTimeStash {
		l.Stash = "constant-time"
	}
	if s.Shards > 1 {
		switch s.Partition {
		case PartitionRandom:
			if s.Padded {
				l.Routing = "none"
			} else {
				l.Routing = "reaccess-corr"
			}
		case PartitionRange:
			if s.Padded {
				l.Routing = "demand-shape"
			} else {
				l.Routing = "addr-range"
			}
		default: // PartitionStripe
			if s.Padded {
				l.Routing = "demand-shape"
			} else {
				l.Routing = "addr-bits"
			}
		}
	}
	return l
}

// Open builds the serving layer described by spec and returns it as a
// Client: N shards (flat trees or recursive chains per PosMap) behind the
// batched request scheduler, on an untimed, shared-timed or persistent
// storage backend. It is NewSharded typed as the interface; New builds a
// single bare engine from the same Spec.
func Open(spec Spec) (Client, error) {
	s, err := NewSharded(spec)
	if err != nil {
		return nil, err
	}
	return s, nil
}
