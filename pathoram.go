package pathoram

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/membus"
	"repro/internal/treemath"
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

// ORAM is a single Path ORAM with a private, oblivious block interface.
// It is single-threaded: one goroutine owns it (the sharded serving layer
// enforces exactly that ownership for its engines). It satisfies Client;
// the batch operations run their requests back to back on the calling
// goroutine.
type ORAM struct {
	trees
	inner  *core.ORAM
	pos    *core.OnChipPositionMap
	blocks uint64
}

// New builds one bare flat ORAM from spec (PosMapOnChip, no serving
// layer): Key encrypts the tree directly and Rand is consumed directly.
func New(spec Spec) (*ORAM, error) {
	if spec.PosMap != PosMapOnChip {
		return nil, fmt.Errorf("pathoram: New builds a flat tree; PosMapRecursive needs NewHierarchy or Open")
	}
	p, err := resolveBare(spec, "New")
	if err != nil {
		return nil, err
	}
	return newORAM(p, p.bareSeed())
}

// newORAM builds the flat engine e of plan p.
func newORAM(p *plan, e engineSeed) (_ *ORAM, err error) {
	o := &ORAM{blocks: e.blocks}
	defer func() {
		if err != nil {
			o.close()
		}
	}()
	leafLevel := p.leafLevel(e.blocks)
	t, err := p.buildTree(e, 0, leafLevel, p.Z, p.BlockSize)
	if err != nil {
		return nil, err
	}
	o.add(t)
	if p.bus != nil {
		port, err := p.bus.AttachShard(leafLevel, t.busBytes)
		if err != nil {
			return nil, err
		}
		o.ports = append(o.ports, port)
		if t.store, err = core.NewTimedStore(t.store, port); err != nil {
			return nil, err
		}
	}
	params := core.Params{
		LeafLevel:             leafLevel,
		Z:                     p.Z,
		BlockBytes:            p.BlockSize,
		Blocks:                e.blocks,
		StashCapacity:         p.StashCapacity,
		SuperBlock:            p.SuperBlockSize,
		BackgroundEviction:    true,
		DeferWriteBack:        p.AsyncEviction,
		MaxDeferredWriteBacks: p.MaxDeferredWriteBacks,
		ConstantTimeStash:     p.ConstantTimeStash,
	}
	if hook := p.OnPathAccess; hook != nil {
		params.OnPathAccess = func(leaf uint64, _ core.AccessKind) { hook(e.shard, 0, leaf) }
	}
	src := leafSource(e.rand)
	if o.pos, err = core.NewOnChipPositionMap(params.Groups(), treemath.New(leafLevel).NumLeaves(), src); err != nil {
		return nil, err
	}
	if o.inner, err = core.New(params, t.store, o.pos, src); err != nil {
		return nil, err
	}
	return o, nil
}

// Read returns a copy of the block at addr (zero-filled if never written).
// One oblivious path access.
func (o *ORAM) Read(addr uint64) ([]byte, error) {
	return o.inner.Access(addr, core.OpRead, nil)
}

// ReadInto reads the block at addr into the caller-provided dst (which
// must be BlockSize bytes), avoiding the per-read result allocation of
// Read — the hot-path form for throughput-sensitive callers. found reports
// whether the block was ever written; on a miss dst is zero-filled. One
// oblivious path access.
func (o *ORAM) ReadInto(addr uint64, dst []byte) (found bool, err error) {
	return o.inner.ReadInto(addr, dst)
}

// Write replaces the block at addr. One oblivious path access.
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
// stash — no path access (Section 3.3.1).
func (o *ORAM) Store(addr uint64, data []byte) error {
	return o.inner.Store(addr, data)
}

// ReadBatch reads every address, back to back on the calling goroutine
// (a single tree has no intra-batch parallelism to exploit — Sharded
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

// PaddingAccess performs one dummy path access — a freshly drawn uniform
// path is read and written back, remapping nothing — and counts it as
// scheduler padding (Stats.PaddingAccesses). On the memory bus it is
// indistinguishable from a real access; the sharded serving layer's padded
// batch mode uses it to fill the dummy slots of a fixed-shape schedule.
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
// pending path write-back, or (when allowEviction is set and the stash
// sits above the idle low-water mark) issuing one background-eviction
// dummy access — and reports which. Under AsyncEviction, call it whenever
// the ORAM would otherwise sit idle; BgNone means there is nothing useful
// to do right now. Inside a Sharded the shard workers call it for you.
func (o *ORAM) StepBackground(allowEviction bool) (BackgroundWork, error) {
	return o.inner.StepBackground(allowEviction)
}

// Flush completes every deferred path write-back and fully drains
// background eviction, leaving the ORAM in a state the synchronous
// protocol could have produced. Under BackendFile it is also the
// durability epoch: the tree file is msync'd (and the WAL, if enabled,
// checkpointed and truncated) before Flush returns. A no-op without
// AsyncEviction on volatile backends.
func (o *ORAM) Flush() error {
	if err := o.inner.Flush(); err != nil {
		return err
	}
	return o.sync()
}

// PendingWriteBacks returns the number of deferred path write-backs not
// yet completed (always 0 without AsyncEviction).
func (o *ORAM) PendingWriteBacks() int { return o.inner.PendingWriteBacks() }

// Stats returns the protocol counters.
func (o *ORAM) Stats() Stats { return o.inner.Stats() }

// TimingStats returns the modeled memory-timing counters of this tree's
// port on the shared memory scheduler: DRAM traffic and row-hit counters,
// stage-2/stage-5 path charges, and the modeled completion frontier in
// DDR3 cycles. The bool is false under BackendMem (no model attached).
// Implements shard.TimedEngine, so pools aggregate these like protocol
// stats. Note the counters advance when I/O is *charged*: under
// AsyncEviction a write-back's cycles land when the flush schedule issues
// it, so snapshot after Flush (Sharded does this automatically) to see
// access-complete totals.
func (o *ORAM) TimingStats() (TimingStats, bool) { return o.timingStats() }

// ResetStats clears the protocol counters (peak occupancy included).
// BlocksInORAM is a live occupancy gauge, not a counter, and survives the
// reset.
func (o *ORAM) ResetStats() { o.inner.ResetStats() }

// StashSize returns the current stash occupancy in blocks.
func (o *ORAM) StashSize() int { return o.inner.StashSize() }

// LeafLevel returns L; the tree has L+1 levels.
func (o *ORAM) LeafLevel() int { return o.inner.Params().LeafLevel }

// NumORAMs returns the number of ORAMs an access walks: 1 — a flat ORAM
// keeps its whole position map on chip. (Hierarchy returns the chain
// length H; the accessor exists on both so the serving layer can report
// the recursion depth uniformly.)
func (o *ORAM) NumORAMs() int { return 1 }

// OnChipPositionMapBytes returns the on-chip position-map footprint at
// 4 bytes per entry — for a flat ORAM, the whole map.
func (o *ORAM) OnChipPositionMapBytes() uint64 { return o.pos.SizeBits(32) / 8 }

// OnChipBytes returns the total trusted-memory provision of the
// construction: the on-chip position map plus the stash bound (C slots of
// payload and metadata — the processor reserves it whether or not the
// stash fills; see core.Params.StashBoundBytes). This is the on-chip-bytes
// objective of the paper's design space: recursion trades it against
// extra path accesses per operation.
func (o *ORAM) OnChipBytes() uint64 {
	return o.OnChipPositionMapBytes() + o.inner.Params().StashBoundBytes()
}

// Close quiesces the ORAM: every deferred write-back is completed and
// background eviction fully drained (Flush). On volatile backends it owns
// no goroutines or external handles, so unlike Sharded.Close it does not
// invalidate the receiver — it is the Client interface's quiesce point.
// Under BackendFile it additionally checkpoints and closes the tree file
// (and WAL); the ORAM then rejects further I/O, and the first backend
// error — flush, sync, or close — is the one reported.
func (o *ORAM) Close() error {
	err := o.inner.Flush()
	if e := o.close(); err == nil {
		err = e
	}
	return err
}

// ExternalMemoryBytes returns the external storage footprint (0 for plain
// in-memory stores).
func (o *ORAM) ExternalMemoryBytes() uint64 { return o.externalMemoryBytes() }
