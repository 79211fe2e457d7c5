package pathoram

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/membus"
)

// enumName and parseEnum are the text codec the Spec enums share: names[v]
// spells value v. The table beside each enum's constants is the only place
// a spelling lives — flags, grids and reports all go through it.
func enumName[E ~int](names []string, v E) string {
	if v < 0 || int(v) >= len(names) {
		return fmt.Sprintf("%T(%d)", v, int(v))
	}
	return names[v]
}

func parseEnum[E ~int](names []string, text []byte, v *E) error {
	for i, name := range names {
		if name == string(text) {
			*v = E(i)
			return nil
		}
	}
	return fmt.Errorf("unknown %T %q (have %s)", *v, text, strings.Join(names, "|"))
}

// Encryption selects the randomized bucket-encryption scheme.
type Encryption int

const (
	// EncryptCounter is the counter-based scheme (Section 2.2.2):
	// 8 bytes of overhead per bucket. The default.
	EncryptCounter Encryption = iota
	// EncryptStrawman is the per-block random-key scheme (Section 2.2.1):
	// 16 bytes of overhead per block.
	EncryptStrawman
	// EncryptNone stores buckets in the clear. Only meaningful for
	// simulation and benchmarking: a real deployment must encrypt.
	EncryptNone
)

// encryptionNames spells Encryption as text (-encrypt).
var encryptionNames = []string{"counter", "strawman", "none"}

func (e Encryption) String() string                { return enumName(encryptionNames, e) }
func (e Encryption) MarshalText() ([]byte, error)  { return []byte(e.String()), nil }
func (e *Encryption) UnmarshalText(b []byte) error { return parseEnum(encryptionNames, b, e) }

// Backend selects the storage backend behind each ORAM's bucket tree.
type Backend int

const (
	// BackendMem is the untimed default: buckets live in Go memory and
	// every access costs whatever the code costs. Right for functional
	// use and for measuring the implementation itself.
	BackendMem Backend = iota
	// BackendDRAM charges every bucket read and write to a shared
	// cycle-accurate DDR3 model (internal/membus + internal/dram): the
	// serving layer then reports modeled hardware cycles — the paper's
	// actual currency — alongside wall-clock numbers. Logical behavior is
	// bit-identical to BackendMem (timing is observation-only); see
	// DESIGN.md's "Timed serving layer".
	BackendDRAM
	// BackendFile persists each bucket tree in one flat mmap'd file under
	// Spec.Dir (internal/storage.File): reads alias the mapping, writes
	// copy into it, and Flush is the durability epoch (msync). Combine
	// with Spec.WAL for crash consistency of the deferred write-back
	// pipeline. Logical behavior is bit-identical to BackendMem.
	BackendFile
)

// backendNames spells Backend as text (-backend).
var backendNames = []string{"mem", "dram", "file"}

func (b Backend) String() string                { return enumName(backendNames, b) }
func (b Backend) MarshalText() ([]byte, error)  { return []byte(b.String()), nil }
func (b *Backend) UnmarshalText(t []byte) error { return parseEnum(backendNames, t, b) }

// DRAMLayout selects the bucket-to-physical-address placement under
// BackendDRAM (Section 3.3.4 of the paper).
type DRAMLayout int

const (
	// LayoutSubtree packs k-level subtrees into row-buffer-sized nodes
	// (Figure 6), raising the row-hit rate of path accesses. The default.
	LayoutSubtree DRAMLayout = iota
	// LayoutNaive stores buckets flat in heap order — the placement
	// baseline.
	LayoutNaive
)

// layoutNames spells DRAMLayout as text (-layout).
var layoutNames = []string{"subtree", "naive"}

func (l DRAMLayout) String() string                { return enumName(layoutNames, l) }
func (l DRAMLayout) MarshalText() ([]byte, error)  { return []byte(l.String()), nil }
func (l *DRAMLayout) UnmarshalText(b []byte) error { return parseEnum(layoutNames, b, l) }

// MemSched selects the memory controller's command scheduling under
// BackendDRAM (the open-queue axis of the design space).
type MemSched int

const (
	// MemSchedInOrder issues each channel's column accesses strictly in
	// arrival order, one in flight — the closed controller the model
	// started with, bit for bit. The default.
	MemSchedInOrder MemSched = iota
	// MemSchedFRFCFS holds an open per-channel command queue and issues
	// row-buffer hits first, then oldest (first-ready FCFS), with a
	// starvation cap bounding how long row hits may bypass the oldest
	// request — the DRAMSim2-class reordering the paper's design-space
	// numbers assume. See DRAMQueueDepth and DRAMStarveCap.
	MemSchedFRFCFS
)

// memSchedNames spells MemSched as text (-mem-sched).
var memSchedNames = []string{"inorder", "frfcfs"}

func (m MemSched) String() string                { return enumName(memSchedNames, m) }
func (m MemSched) MarshalText() ([]byte, error)  { return []byte(m.String()), nil }
func (m *MemSched) UnmarshalText(b []byte) error { return parseEnum(memSchedNames, b, m) }

// Stats re-exports the protocol counters.
type Stats = core.Stats

// TimingStats re-exports the modeled memory-timing counters
// (internal/membus.Stats) reported by DRAM-backed ORAMs.
type TimingStats = membus.Stats

// Block is a prefetched super-block member returned by Load.
type Block struct {
	Addr uint64
	Data []byte
}

// ORAM is the one engine: a Path ORAM together with the recursion chain
// that stores its position map (Section 2.3). The data ORAM's map lives in
// a second, smaller ORAM, recursively, until the final map fits on chip —
// and a flat ORAM is simply the chain that stops at once, because its
// whole map already does (PosMapOnChip; NumORAMs is then 1). Its trees are
// held in construction order: smallest position-map ORAM first, data ORAM
// last. It is single-threaded: one goroutine owns it (the sharded serving
// layer enforces exactly that ownership for its per-shard engines). It
// satisfies Client; the batch operations run their requests back to back
// on the calling goroutine.
type ORAM struct {
	trees
	inner  *hierarchy.ORAM
	blocks uint64
}

// Hierarchy is the pre-one-engine name of a recursive ORAM, kept as an
// alias so existing *Hierarchy declarations keep compiling.
type Hierarchy = ORAM

// New builds one bare engine from spec (no serving layer): a flat tree, or
// under PosMap: PosMapRecursive a recursion chain. Key encrypts a flat tree
// directly — each level of a chain under a per-level key derived from it —
// and Rand is consumed directly. Every ORAM of a chain gets its own store
// with the configured encryption and, optionally, integrity layer;
// background eviction is coordinated across the chain exactly as in Section
// 3.1.1. Under BackendDRAM every level also gets its own port on the memory
// bus; under BackendFile its own tree file. The serving-layer knobs would
// be silently inert on one engine, so they are rejected.
func New(spec Spec) (*ORAM, error) {
	if spec.Shards > 1 || spec.Partition != PartitionStripe || spec.Padded {
		return nil, fmt.Errorf("pathoram: New and NewHierarchy build one bare engine; Shards/Partition/Padded parameterize the serving layer (use Open)")
	}
	p, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	// The whole address space, the Spec's key and generator used directly.
	return p.newEngine(engineSeed{blocks: p.Blocks, key: p.Key, rand: p.Rand, name: "oram"})
}

// NewHierarchy is New with PosMap: PosMapRecursive implied.
func NewHierarchy(spec Spec) (*Hierarchy, error) {
	spec.PosMap = PosMapRecursive
	return New(spec)
}

// Read returns a copy of the block at addr (zero-filled if never written).
// One oblivious path access in every ORAM of the chain, position-map ORAMs
// first (Section 2.3) — one in all for a flat ORAM.
func (o *ORAM) Read(addr uint64) ([]byte, error) {
	return o.inner.Access(addr, core.OpRead, nil)
}

// ReadInto reads the block at addr into the caller-provided dst (which
// must be BlockSize bytes), avoiding the per-read result allocation of
// Read — the hot-path form for throughput-sensitive callers. found reports
// whether the block was ever written; on a miss dst is zero-filled. One
// oblivious access.
func (o *ORAM) ReadInto(addr uint64, dst []byte) (found bool, err error) {
	return o.inner.ReadInto(addr, dst)
}

// Write replaces the block at addr. One oblivious access.
func (o *ORAM) Write(addr uint64, data []byte) error {
	_, err := o.inner.Access(addr, core.OpWrite, data)
	return err
}

// Update applies fn to the block's content in place, in a single oblivious
// read-modify-write access.
func (o *ORAM) Update(addr uint64, fn func(data []byte)) error {
	return o.inner.Update(addr, fn)
}

// Load removes the block (and, with super blocks, its resident group
// members) from the ORAM and hands them to the caller — the exclusive-ORAM
// read of Section 3.3.1. found is false if addr was never written.
func (o *ORAM) Load(addr uint64) (data []byte, found bool, group []Block, err error) {
	data, found, slots, err := o.inner.Load(addr)
	if err != nil {
		return nil, false, nil, err
	}
	for _, s := range slots {
		group = append(group, Block{Addr: s.Addr, Data: s.Data})
	}
	return data, found, group, nil
}

// Store returns a previously loaded block. It inserts straight into the
// data ORAM's stash — no path access (Section 3.3.1).
func (o *ORAM) Store(addr uint64, data []byte) error {
	return o.inner.Store(addr, data)
}

// ReadBatch reads every address, back to back on the calling goroutine
// (a single engine has no intra-batch parallelism to exploit — Sharded
// does), under the shared batch contract (see serialReadBatch).
func (o *ORAM) ReadBatch(addrs []uint64) ([][]byte, error) {
	return serialReadBatch(addrs, o.blocks, o.Read)
}

// WriteBatch writes data[i] to addrs[i] for every i, back to back on the
// calling goroutine, under the shared batch contract (see
// serialWriteBatch).
func (o *ORAM) WriteBatch(addrs []uint64, data [][]byte) error {
	return serialWriteBatch(addrs, data, o.blocks, o.Write)
}

// PaddingAccess performs one dummy-shaped access through the whole chain:
// one freshly drawn uniform path read and written back in every ORAM,
// smallest first, remapping nothing — the same ORAMs in the same order as
// a real access, so an observer of the memory traffic cannot tell them
// apart. Counted as scheduler padding in every level's
// Stats.PaddingAccesses; the sharded serving layer's padded batch mode uses
// it to fill the dummy slots of a fixed-shape schedule.
func (o *ORAM) PaddingAccess() error { return o.inner.PaddingAccess() }

// BackgroundWork reports what one StepBackground call did.
type BackgroundWork = core.BackgroundWork

// Re-exported StepBackground outcomes.
const (
	BgNone      = core.BgNone
	BgWriteBack = core.BgWriteBack
	BgEviction  = core.BgEviction
)

// StepBackground performs one unit of deferred work — completing one
// pending path write-back on some level, or (when allowEviction is set and
// some stash sits above the idle low-water mark) issuing one coordinated
// dummy round through the whole chain — and reports which. Under
// AsyncEviction, call it whenever the ORAM would otherwise sit idle; BgNone
// means there is nothing useful to do right now. Inside a Sharded an
// untimed shard's idle pump completes owed write-backs for you; idle
// eviction runs only when a caller asks for it here.
func (o *ORAM) StepBackground(allowEviction bool) (BackgroundWork, error) {
	return o.inner.StepBackground(allowEviction)
}

// Flush completes every level's deferred path write-backs and fully drains
// coordinated background eviction, leaving the ORAM in a state the
// synchronous protocol could have produced. Under BackendFile it is also
// the durability epoch: every tree file is msync'd (and the WAL, if
// enabled, checkpointed and truncated) before Flush returns. A no-op
// without AsyncEviction on volatile backends.
func (o *ORAM) Flush() error {
	if err := o.inner.Flush(); err != nil {
		return err
	}
	return o.sync()
}

// PendingWriteBacks returns the number of deferred path write-backs, over
// all levels, not yet completed (always 0 without AsyncEviction).
func (o *ORAM) PendingWriteBacks() int { return o.inner.PendingWriteBacks() }

// Stats returns the aggregate protocol counters of the whole chain: every
// level's counters merged with core.Stats.Merge semantics (counters sum,
// stash peaks take the worst level) — for a flat ORAM, its one tree's. One
// program access contributes NumORAMs RealAccesses, one per level, so
// DummyPerReal on the merged view is the per-path-access rate;
// DummyRounds/DummyPerReal report the paper's per-program-access Equation
// 2 factor.
func (o *ORAM) Stats() Stats {
	var merged Stats
	for _, s := range o.inner.Stats() {
		merged = merged.Merge(s)
	}
	return merged
}

// LevelStats returns per-level protocol counters (index 0 = data ORAM).
func (o *ORAM) LevelStats() []Stats { return o.inner.Stats() }

// TimingStats returns the modeled memory-timing counters merged over the
// per-level ports on the shared memory scheduler (counters sum, the
// completion frontier takes the max): DRAM traffic and row-hit counters,
// stage-2/stage-5 path charges, and the modeled completion frontier in
// DDR3 cycles. The bool is false under BackendMem (no model attached).
// A quiesce point of the engine's timing lane: it returns only once
// every charge recorded so far has been replayed, so call it from the
// goroutine that owns the ORAM. Note the counters advance when I/O is
// *charged*: under AsyncEviction a write-back's cycles land when the flush
// schedule issues it, so snapshot after Flush (Sharded does this
// automatically) to see access-complete totals.
func (o *ORAM) TimingStats() (TimingStats, bool) { return o.timingStats() }

// ResetStats clears every level's protocol counters and the coordinated
// dummy-round count (peak occupancy included). BlocksInORAM is a live
// occupancy gauge, not a counter, and survives the reset.
func (o *ORAM) ResetStats() { o.inner.ResetStats() }

// StashSize returns the current stash occupancy in blocks, summed over
// every level.
func (o *ORAM) StashSize() int { return o.inner.StashSize() }

// LeafLevel returns the data tree's L; that tree has L+1 levels.
func (o *ORAM) LeafLevel() int { return o.inner.Level(0).Params().LeafLevel }

// NumORAMs returns H, the number of ORAMs an access walks: 1 for a flat
// ORAM, which keeps its whole position map on chip.
func (o *ORAM) NumORAMs() int { return o.inner.NumORAMs() }

// Layout describes the sized chain for reporting (index 0 = data ORAM).
func (o *ORAM) Layout() []hierarchy.LevelInfo { return o.inner.Layout() }

// OnChipPositionMapBytes returns the final on-chip position map's
// footprint at 4 bytes per entry — for a flat ORAM, the whole map.
func (o *ORAM) OnChipPositionMapBytes() uint64 { return o.inner.OnChipPosMapBytes() }

// PLBOnChipBytes returns the provisioned footprint of the position-map
// lookaside caches (0 without Spec.PLBBytes).
func (o *ORAM) PLBOnChipBytes() uint64 { return o.inner.PLBOnChipBytes() }

// OnChipBytes returns the total trusted-memory provision of the
// construction: the final on-chip position map, every level's stash bound
// (C slots of payload and metadata — the processor reserves it whether or
// not the stash fills; see core.Params.StashBoundBytes), plus the PLB's
// tag/label arrays when one is provisioned. This is the on-chip-bytes
// objective of the paper's design space: recursion shrinks the first term
// at the price of the others and of extra path accesses per operation.
func (o *ORAM) OnChipBytes() uint64 {
	return o.inner.OnChipPosMapBytes() + o.inner.StashBoundBytes() + o.inner.PLBOnChipBytes()
}

// ChainLengthHist returns the chain-length histogram: entry n counts
// program operations whose oblivious access needed n ORAM path accesses.
// Without a PLB every operation lands on n = NumORAMs; PLB hits move mass
// to shorter chains, dirty-eviction write-backs to longer ones. A flat
// ORAM has no chain to measure and leaves every bucket 0, as it leaves
// Stats.ChainSamples.
func (o *ORAM) ChainLengthHist() []uint64 { return o.inner.ChainLengthHist() }

// DummyRounds returns the number of coordinated background-eviction
// rounds: one dummy access to every ORAM of the chain each.
func (o *ORAM) DummyRounds() uint64 { return o.inner.DummyRounds() }

// DummyPerReal returns the per-program-access DA/RA factor of Equation 2.
func (o *ORAM) DummyPerReal() float64 { return o.inner.DummyPerReal() }

// Close quiesces the ORAM: every deferred write-back is completed and
// background eviction fully drained (Flush), and under BackendDRAM every
// recorded charge is replayed and the replay goroutine gone when it
// returns. On volatile backends it then owns no goroutines or external
// handles, so unlike Sharded.Close it does not invalidate the receiver —
// it is the Client interface's quiesce point.
// Under BackendFile it additionally checkpoints and closes every level's
// tree file (and WAL); the ORAM then rejects further I/O, and the first
// backend error — flush, sync, or close — is the one reported even when
// later levels close cleanly.
func (o *ORAM) Close() error {
	err := o.inner.Flush()
	if e := o.close(); err == nil {
		err = e
	}
	return err
}

// ExternalMemoryBytes returns the summed external storage footprint of
// every level; a plain in-memory tree counts its slot arrays.
func (o *ORAM) ExternalMemoryBytes() uint64 { return o.externalMemoryBytes() }
