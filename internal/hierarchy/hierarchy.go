// Package hierarchy implements the hierarchical Path ORAM of Section 2.3:
// the data ORAM's position map is stored in a second, smaller ORAM, whose
// position map is stored in a third, and so on until the final map fits in
// on-chip storage. Looking up the data ORAM therefore walks the chain from
// the smallest ORAM (ORAM_H) down to the data ORAM (ORAM_1), exactly the
// access order of the paper — realized naturally here by recursion through
// ORAM-backed position maps.
//
// Background eviction is coordinated across the chain (Section 3.1.1): if
// any stash exceeds its threshold, one dummy request is issued to every
// ORAM in normal access order until all stashes drain — core's Evictor run
// over the levels.
package hierarchy

import (
	"encoding/binary"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
)

// labelBytes is the byte-aligned width of a leaf label inside position-map
// ORAM blocks (the analytical model uses the paper's bit-exact L-bit
// labels; see internal/analysis).
const labelBytes = 4

// StoreFactory builds the PathStore for one level of the hierarchy.
// level 0 is the data ORAM.
type StoreFactory func(level int, leafLevel, z, blockBytes int) (core.PathStore, error)

// MemStoreFactory is the default factory: plain in-memory stores.
func MemStoreFactory(_ int, leafLevel, z, blockBytes int) (core.PathStore, error) {
	return core.NewMemStore(leafLevel, z, blockBytes)
}

// Config describes a hierarchical ORAM.
type Config struct {
	// Blocks is the number of addressable data blocks.
	Blocks uint64
	// DataBlockBytes is the data ORAM's block size (0 = metadata-only data
	// ORAM; position-map ORAMs always carry payloads).
	DataBlockBytes int
	// DataZ and PosZ are the bucket capacities for the data ORAM and the
	// position-map ORAMs.
	DataZ, PosZ int
	// DataUtilization sizes the data ORAM tree (default 0.5, the paper's
	// sweet spot for Z=3; Section 4.1.3).
	DataUtilization float64
	// DataLeafLevel overrides the derived data-ORAM leaf level when > 0.
	DataLeafLevel int
	// PosBlockBytes is the position-map ORAM block size (Section 3.3.3;
	// the paper's DZ3Pb32 uses 32 bytes). Must hold at least one 4-byte
	// label.
	PosBlockBytes int
	// OnChipPosMapMax bounds the final on-chip position map, in bytes
	// (default 200 KB as in Section 4.1.5; counted at 4 bytes per entry).
	OnChipPosMapMax uint64
	// SuperBlock enables static super blocks on the data ORAM.
	SuperBlock int
	// StashCapacity is C per ORAM (default 200, Section 4.1.2).
	StashCapacity int
	// BackgroundEviction enables coordinated dummy accesses.
	BackgroundEviction bool
	// DeferWriteBack enables the staged access path on every level of the
	// chain (core.Params.DeferWriteBack): each level's path write-back I/O
	// is queued on that level's own bounded FIFO and completed later by
	// StepBackground, Flush or the queue-full inline drain. Stash and
	// position-map state stay bit-identical to the synchronous protocol;
	// someone must drain (shards' idle pumps, or the owner calling
	// StepBackground/Flush).
	DeferWriteBack bool
	// MaxDeferredWriteBacks caps each level's deferred FIFO when positive
	// (default core.DefaultMaxDeferredWriteBacks).
	MaxDeferredWriteBacks int
	// ConstantTimeStash enables fixed-length masked stash scans on every
	// level (core.Params.ConstantTimeStash).
	ConstantTimeStash bool
	// NewStore builds each level's bucket store (default MemStoreFactory).
	NewStore StoreFactory
	// Leaves supplies leaf randomness for every level (required).
	Leaves core.LeafSource
	// PLBBytes provisions a position-map lookaside cache (Section 3.3.3):
	// the byte budget is split evenly across the chain's position-map
	// interfaces, each getting a small set-associative write-back LRU of
	// group→leaf labels. A hit elides the backing access — and every
	// smaller ORAM above it — cutting the chain short; dirty evictions and
	// Flush write the exact cached label back. 0 disables the cache. Inert
	// when the chain has a single level (the whole map already fits
	// on-chip).
	PLBBytes uint64
	// PLBConstantShape pads every PLB hit with one dummy-shaped access to
	// each elided level (smallest first), so hits and misses touch the same
	// ORAMs in the same order — the oblivious endpoint of the PLB axis,
	// trading the hit's traffic saving for shape invariance. The padding is
	// counted in Stats.PaddingAccesses. Requires PLBBytes > 0.
	PLBConstantShape bool
	// OnRoundStart, when set, is called at the start of every chain round
	// — each program operation's access, each coordinated dummy round, each
	// padding access and each flush-time PLB write-back — before any level
	// is touched. The timed backend uses it to open a new speculation slot
	// in its overlap scheduler.
	OnRoundStart func()
	// OnPathAccess observes every path access in the whole hierarchy:
	// level 0 is the data ORAM.
	OnPathAccess func(level int, leaf uint64, kind core.AccessKind)
}

// LevelInfo describes one sized level for reporting.
type LevelInfo struct {
	LeafLevel  int
	Z          int
	BlockBytes int
	Blocks     uint64 // valid blocks stored at this level
}

// ORAM is a hierarchical Path ORAM.
type ORAM struct {
	cfg    Config
	levels []*core.ORAM // [0] = data ORAM, last = smallest position-map ORAM
	infos  []LevelInfo
	onChip *core.OnChipPositionMap
	// posMaps holds the ORAM-backed position-map interfaces: posMaps[i]
	// serves level i's lookups out of level i+1 (nil entries never occur;
	// the slice is empty for a single-level chain).
	posMaps []*oramPosMap
	// ev runs background eviction over the levels.
	ev core.Evictor

	dummyRounds uint64
	// idleRounds counts the dummy rounds StepBackground issued in idle time
	// and longestRun the longest inline drain, in rounds — what a lone
	// core.ORAM keeps as IdleEvictions and MaxDummyRun. Stats reports both
	// on the data level.
	idleRounds uint64
	longestRun int

	// Chain-length accounting: curChain counts the ORAM path accesses of
	// the operation in flight (the data level plus every backing access the
	// posmap chain actually performed — PLB hits shorten it, dirty-eviction
	// write-backs lengthen it); chainHist[n] counts operations that needed
	// n accesses, with the last bucket absorbing overflow.
	curChain     uint64
	chainLevels  uint64
	chainSamples uint64
	chainHist    []uint64
	plbScratch   []cache.Entry[uint32] // flush-time dirty-entry buffer (reused)
}

// New sizes and assembles the chain.
func New(cfg Config) (*ORAM, error) {
	if cfg.Blocks == 0 {
		return nil, fmt.Errorf("hierarchy: Blocks must be >= 1")
	}
	if cfg.Leaves == nil {
		return nil, fmt.Errorf("hierarchy: leaf source is required")
	}
	if cfg.DataZ < 1 {
		return nil, fmt.Errorf("hierarchy: Z values must be >= 1")
	}
	if cfg.DataUtilization <= 0 || cfg.DataUtilization > 1 {
		cfg.DataUtilization = 0.5
	}
	if cfg.OnChipPosMapMax == 0 {
		cfg.OnChipPosMapMax = 200 << 10
	}
	if cfg.StashCapacity == 0 {
		cfg.StashCapacity = 200
	}
	if cfg.NewStore == nil {
		cfg.NewStore = MemStoreFactory
	}
	if cfg.PLBConstantShape && cfg.PLBBytes == 0 {
		return nil, fmt.Errorf("hierarchy: PLBConstantShape pads PLB hits; set PLBBytes > 0")
	}

	infos, err := planLevels(cfg)
	if err != nil {
		return nil, err
	}
	h := &ORAM{cfg: cfg, infos: infos}

	// Instantiate from the smallest ORAM backwards: each level's position
	// map needs the next level to exist first.
	hn := len(infos)
	h.levels = make([]*core.ORAM, hn)
	h.posMaps = make([]*oramPosMap, hn-1)
	h.chainHist = make([]uint64, 2*hn+2)
	var plbPer uint64
	if cfg.PLBBytes > 0 && hn > 1 {
		// Split the lookaside budget evenly across the chain's interfaces;
		// a non-zero budget always builds every cache (newPLB rounds a
		// tiny share up to one set).
		if plbPer = cfg.PLBBytes / uint64(hn-1); plbPer == 0 {
			plbPer = 1
		}
	}
	var pos core.PositionMap
	for i := hn - 1; i >= 0; i-- {
		info := infos[i]
		groups := info.Blocks
		superBlock := 1
		if i == 0 {
			superBlock = cfg.SuperBlock
			if superBlock < 1 {
				superBlock = 1
			}
			groups = (info.Blocks + uint64(superBlock) - 1) / uint64(superBlock)
		}
		if i == hn-1 {
			onChip, err := core.NewOnChipPositionMap(groups, 1<<uint(info.LeafLevel), cfg.Leaves)
			if err != nil {
				return nil, err
			}
			h.onChip = onChip
			pos = onChip
		} else {
			m := &oramPosMap{
				backing:        h.levels[i+1],
				labelsPerBlock: uint64(infos[i+1].BlockBytes / labelBytes),
				numLeaves:      1 << uint(info.LeafLevel),
				src:            cfg.Leaves,
				h:              h,
				level:          i,
				plb:            newPLB(plbPer),
			}
			h.posMaps[i] = m
			pos = m
		}
		store, err := cfg.NewStore(i, info.LeafLevel, info.Z, info.BlockBytes)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: building store for level %d: %w", i, err)
		}
		params := core.Params{
			LeafLevel:     info.LeafLevel,
			Z:             info.Z,
			BlockBytes:    info.BlockBytes,
			Blocks:        info.Blocks,
			StashCapacity: cfg.StashCapacity,
			SuperBlock:    superBlock,
			// The hierarchy coordinates eviction itself.
			BackgroundEviction:    false,
			DeferWriteBack:        cfg.DeferWriteBack,
			MaxDeferredWriteBacks: cfg.MaxDeferredWriteBacks,
			ConstantTimeStash:     cfg.ConstantTimeStash,
		}
		if i > 0 {
			// Position-map blocks must read as "unassigned" until written.
			params.FreshFill = 0xFF
		}
		if cfg.OnPathAccess != nil {
			lvl := i
			params.OnPathAccess = func(leaf uint64, kind core.AccessKind) {
				cfg.OnPathAccess(lvl, leaf, kind)
			}
		}
		if params.StashCapacity-params.Z*(params.LeafLevel+1) < 1 {
			return nil, fmt.Errorf("hierarchy: stash capacity %d too small for level %d (Z(L+1)=%d)",
				params.StashCapacity, i, params.Z*(params.LeafLevel+1))
		}
		o, err := core.New(params, store, pos, cfg.Leaves)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: level %d: %w", i, err)
		}
		h.levels[i] = o
	}
	h.ev = core.Evictor{Trees: h.levels, Enabled: cfg.BackgroundEviction, OnRound: cfg.OnRoundStart}
	return h, nil
}

// planLevels sizes the chain: ORAM(h+1) stores k = PosBlockBytes/4 labels
// per block and needs ceil(entries_h / k) blocks.
func planLevels(cfg Config) ([]LevelInfo, error) {
	dataLevel := cfg.DataLeafLevel
	if dataLevel <= 0 {
		slots := uint64(float64(cfg.Blocks) / cfg.DataUtilization)
		dataLevel = analysis.LevelsForSlots(slots, cfg.DataZ)
		// Never size the tree below its contents.
		if min := analysis.MinLevelsForBlocks(cfg.Blocks, cfg.DataZ); dataLevel < min {
			dataLevel = min
		}
	}
	infos := []LevelInfo{{
		LeafLevel: dataLevel, Z: cfg.DataZ,
		BlockBytes: cfg.DataBlockBytes, Blocks: cfg.Blocks,
	}}
	sb := cfg.SuperBlock
	if sb < 1 {
		sb = 1
	}
	entries := (cfg.Blocks + uint64(sb) - 1) / uint64(sb) // groups of the data ORAM
	k := uint64(cfg.PosBlockBytes / labelBytes)
	for entries*labelBytes > cfg.OnChipPosMapMax {
		// The position-map parameters matter only once a map spills: a chain
		// whose first map already fits on chip (a flat ORAM) never reads them.
		if cfg.PosZ < 1 {
			return nil, fmt.Errorf("hierarchy: Z values must be >= 1")
		}
		if cfg.PosBlockBytes < labelBytes {
			return nil, fmt.Errorf("hierarchy: position-map blocks of %dB cannot hold a %d-byte label",
				cfg.PosBlockBytes, labelBytes)
		}
		if len(infos) > 16 {
			return nil, fmt.Errorf("hierarchy: position-map chain did not converge")
		}
		n := (entries + k - 1) / k
		l := analysis.PosMapLevels(n)
		// Keep utilization at or below ~2/3 so the stash stays healthy
		// even for small Z (the paper's posmap ORAMs use Z=3, where the
		// ceil(log2 N)-1 rule already lands in this range).
		for uint64(cfg.PosZ)*(1<<uint(l+1)-1)*2 < 3*n {
			l++
		}
		infos = append(infos, LevelInfo{
			LeafLevel: l, Z: cfg.PosZ, BlockBytes: cfg.PosBlockBytes, Blocks: n,
		})
		entries = n
	}
	return infos, nil
}

// NumORAMs returns H, the number of ORAMs in the chain.
func (h *ORAM) NumORAMs() int { return len(h.levels) }

// Layout returns the sized levels (index 0 = data ORAM).
func (h *ORAM) Layout() []LevelInfo { return append([]LevelInfo(nil), h.infos...) }

// OnChipPosMapBytes returns the functional size of the final on-chip
// position map at 4 bytes per entry.
func (h *ORAM) OnChipPosMapBytes() uint64 {
	return h.onChip.SizeBits(8*labelBytes) / 8
}

// StashBoundBytes returns the summed on-chip stash provision over every
// level of the chain (each level owns its own stash of cfg.StashCapacity
// slots, sized for that level's block bytes — payload plus per-entry
// metadata, see core.Params.StashBoundBytes).
func (h *ORAM) StashBoundBytes() uint64 {
	var total uint64
	for _, l := range h.levels {
		total += l.Params().StashBoundBytes()
	}
	return total
}

// Level exposes one member ORAM (for stats and tests).
func (h *ORAM) Level(i int) *core.ORAM { return h.levels[i] }

// Stats returns per-level counters (index 0 = data ORAM). PLB counters are
// attributed to the backing level whose accesses the cache filters (the
// PLB in front of level i+1 shows up in out[i+1]); the chain-length
// aggregate and the coordinated-eviction counters (IdleEvictions,
// MaxDummyRun, both in rounds) land on the data level.
func (h *ORAM) Stats() []core.Stats {
	out := make([]core.Stats, len(h.levels))
	for i, o := range h.levels {
		out[i] = o.Stats()
	}
	for _, m := range h.posMaps {
		if m == nil || m.plb == nil {
			continue
		}
		s := &out[m.level+1]
		hits, misses := m.plb.Stats()
		s.PLBHits += hits
		s.PLBMisses += misses
		s.PLBWriteBacks += m.plb.writeBacks
	}
	out[0].ChainLevels += h.chainLevels
	out[0].ChainSamples += h.chainSamples
	out[0].IdleEvictions += h.idleRounds
	out[0].MaxDummyRun = max(out[0].MaxDummyRun, h.longestRun)
	return out
}

// ChainLengthHist returns a copy of the chain-length histogram: entry n
// counts program operations that needed n ORAM path accesses (the last
// bucket absorbs overflow from dirty-eviction write-back sub-chains).
func (h *ORAM) ChainLengthHist() []uint64 {
	return append([]uint64(nil), h.chainHist...)
}

// PLBOnChipBytes returns the provisioned on-chip footprint of every
// position-map lookaside cache (0 without Config.PLBBytes).
func (h *ORAM) PLBOnChipBytes() uint64 {
	var total uint64
	for _, m := range h.posMaps {
		if m != nil && m.plb != nil {
			total += m.plb.sizeBytes()
		}
	}
	return total
}

// DummyRounds returns how many coordinated dummy rounds (one dummy access
// to every ORAM) background eviction has issued.
func (h *ORAM) DummyRounds() uint64 { return h.dummyRounds }

// ResetStats clears the counters of every level and the dummy-round count
// (used after a fill phase so steady-state rates are measured).
func (h *ORAM) ResetStats() {
	for _, o := range h.levels {
		o.ResetStats()
	}
	h.dummyRounds, h.idleRounds, h.longestRun = 0, 0, 0
	h.chainLevels, h.chainSamples = 0, 0
	for i := range h.chainHist {
		h.chainHist[i] = 0
	}
	for _, m := range h.posMaps {
		if m != nil && m.plb != nil {
			// Counters only: cached labels are protocol state, and dropping
			// them at a measurement boundary would change behavior.
			m.plb.ResetStats()
			m.plb.writeBacks = 0
		}
	}
}

// DummyPerReal returns the hierarchy-level DA/RA of Equation 2.
func (h *ORAM) DummyPerReal() float64 {
	real := h.levels[0].Stats().RealAccesses
	if real == 0 {
		return 0
	}
	return float64(h.dummyRounds) / float64(real)
}

// beginOp opens one program operation's chain round: notifies the timing
// scheduler and starts the chain-length count at 1 (the data level's own
// path access; the posmap chain adds every backing access it performs).
func (h *ORAM) beginOp() {
	if h.cfg.OnRoundStart != nil {
		h.cfg.OnRoundStart()
	}
	h.curChain = 1
}

// recordChain closes the count beginOp opened. A one-ORAM chain has no
// chain to measure: it samples nothing, in Stats and the histogram alike,
// so a flat ORAM reports ChainSamples 0 ("not a hierarchy").
func (h *ORAM) recordChain() {
	if len(h.levels) == 1 {
		return
	}
	h.chainSamples++
	h.chainLevels += h.curChain
	idx := h.curChain
	if idx >= uint64(len(h.chainHist)) {
		idx = uint64(len(h.chainHist)) - 1
	}
	h.chainHist[idx]++
}

// Access reads or writes a data block through the whole hierarchy: one
// path access in every ORAM (position-map chain first), then coordinated
// background eviction.
func (h *ORAM) Access(addr uint64, op core.Op, data []byte) ([]byte, error) {
	h.beginOp()
	out, err := h.levels[0].Access(addr, op, data)
	if err != nil {
		return nil, err
	}
	h.recordChain()
	return out, h.drain()
}

// ReadInto reads a data block into the caller-provided dst through the
// whole hierarchy, avoiding the per-read result allocation of Access.
func (h *ORAM) ReadInto(addr uint64, dst []byte) (found bool, err error) {
	h.beginOp()
	found, err = h.levels[0].ReadInto(addr, dst)
	if err != nil {
		return false, err
	}
	h.recordChain()
	return found, h.drain()
}

// Update performs a read-modify-write of a data block.
func (h *ORAM) Update(addr uint64, fn func(data []byte)) error {
	h.beginOp()
	if err := h.levels[0].Update(addr, fn); err != nil {
		return err
	}
	h.recordChain()
	return h.drain()
}

// Load is the exclusive read (Section 3.3.1) through the hierarchy.
func (h *ORAM) Load(addr uint64) (data []byte, found bool, group []core.Slot, err error) {
	h.beginOp()
	data, found, group, err = h.levels[0].Load(addr)
	if err != nil {
		return nil, false, nil, err
	}
	h.recordChain()
	return data, found, group, h.drain()
}

// Store returns a checked-out block to the data ORAM's stash. It touches
// no path in any ORAM.
func (h *ORAM) Store(addr uint64, data []byte) error {
	if err := h.levels[0].Store(addr, data); err != nil {
		return err
	}
	return h.drain()
}

// PaddingAccess performs one dummy-shaped access through the whole chain:
// every ORAM, smallest first, reads and writes back one freshly drawn
// uniform path — on the wire indistinguishable from a real access, since a
// real access touches exactly the same ORAMs in exactly the same order —
// counted as scheduler padding (Stats.PaddingAccesses per level). The
// sharded serving layer's padded batch mode fills the dummy slots of its
// fixed-shape schedule with these.
func (h *ORAM) PaddingAccess() error {
	if h.cfg.OnRoundStart != nil {
		h.cfg.OnRoundStart()
	}
	if err := h.pad(0); err != nil {
		return err
	}
	return h.drain()
}

// StashSize returns the summed stash occupancy over every level.
func (h *ORAM) StashSize() int {
	var total int
	for _, o := range h.levels {
		total += o.StashSize()
	}
	return total
}

// PendingWriteBacks returns the total deferred path write-backs across all
// levels that have not yet been completed (always 0 without
// Config.DeferWriteBack).
func (h *ORAM) PendingWriteBacks() int {
	var total int
	for _, o := range h.levels {
		total += o.PendingWriteBacks()
	}
	return total
}

// StepBackground performs one unit of deferred work over the chain
// (core.Evictor.Step): one pending write-back, or one coordinated dummy
// round. core.BgNone means there is nothing useful to do right now.
func (h *ORAM) StepBackground(allowEviction bool) (core.BackgroundWork, error) {
	w, err := h.ev.Step(allowEviction)
	if w == core.BgEviction && err == nil {
		h.dummyRounds++
		h.idleRounds++
	}
	return w, err
}

// Flush writes back every dirty PLB label and leaves the cache cold, so the
// backing trees are self-contained again, then completes every level's
// pending write-backs and fully drains coordinated background eviction
// (core.Evictor.Flush).
func (h *ORAM) Flush() error {
	if err := h.plbFlush(); err != nil {
		return err
	}
	return h.noteRun(h.ev.Flush())
}

// plbFlush writes every dirty PLB entry back into its backing ORAM and
// invalidates the caches. Interfaces flush data-side first: writing
// interface i's labels walks the chain above it and may dirty interface
// i+1's cache, which the next iteration then flushes. Each write-back is
// its own chain round (one oblivious access at the backing level plus the
// recursion above it).
func (h *ORAM) plbFlush() error {
	for _, m := range h.posMaps {
		if m == nil || m.plb == nil {
			continue
		}
		h.plbScratch = m.plb.AppendDirty(h.plbScratch[:0])
		for _, e := range h.plbScratch {
			m.plb.writeBacks++
			if h.cfg.OnRoundStart != nil {
				h.cfg.OnRoundStart()
			}
			if err := m.writeLabel(e.Key, e.Val); err != nil {
				return err
			}
		}
		m.plb.Clear()
	}
	return nil
}

// drain runs coordinated background eviction after an operation.
func (h *ORAM) drain() error { return h.noteRun(h.ev.Drain()) }

// noteRun counts a drain's dummy rounds and, when it completed, its length.
func (h *ORAM) noteRun(run int, err error) error {
	h.dummyRounds += uint64(run)
	if err == nil {
		h.longestRun = max(h.longestRun, run)
	}
	return err
}

// oramPosMap is a core.PositionMap stored inside the next ORAM of the
// chain: each backing block packs labelsPerBlock little-endian 4-byte leaf
// labels; 0xFFFFFFFF (the backing ORAM's fresh fill) means unassigned. It
// keeps no per-group state of its own: every label lives in the backing
// tree or the PLB, and the leaf of a checked-out block rides in the data
// ORAM's checkout record, so the chain's client state stays bounded.
type oramPosMap struct {
	backing        *core.ORAM
	labelsPerBlock uint64
	numLeaves      uint64
	src            core.LeafSource
	// plb is the optional lookaside cache in front of this interface; h
	// and level locate it in the chain (backing is h.levels[level+1]) for
	// chain-length accounting and constant-shape padding.
	plb   *plb
	h     *ORAM
	level int
}

// Access implements core.PositionMap. On a PLB hit the cached label is
// authoritative — the group is remapped in the cache alone (entry goes
// dirty) and the backing ORAM is not touched, which elides every smaller
// ORAM above it too. On a miss (or without a PLB) it is a single
// read-modify-write access to the backing ORAM (one path per level,
// recursively); the freshly mapped label is then cached clean, and a dirty
// victim of the insert is written back exactly as cached.
func (m *oramPosMap) Access(group uint64) (old, new uint32, err error) {
	if m.plb != nil {
		if e := m.plb.Find(group); e != nil {
			// Remap in the cache alone: the backing copy goes stale.
			old = e.Val
			e.Val, e.Dirty = uint32(m.src.Leaf(m.numLeaves)), true
			if m.h.cfg.PLBConstantShape {
				if err := m.h.pad(m.level + 1); err != nil {
					return 0, 0, err
				}
			}
			return old, e.Val, nil
		}
	}
	newLeaf := uint32(m.src.Leaf(m.numLeaves))
	blk := group / m.labelsPerBlock
	off := (group % m.labelsPerBlock) * labelBytes
	m.h.curChain++
	err = m.backing.Update(blk, func(data []byte) {
		old = binary.LittleEndian.Uint32(data[off : off+labelBytes])
		if old == core.UnassignedLeaf {
			// Never mapped: the paper initializes every entry to a random
			// leaf; drawing it lazily is equivalent.
			old = uint32(m.src.Leaf(m.numLeaves))
		}
		binary.LittleEndian.PutUint32(data[off:off+labelBytes], newLeaf)
	})
	if err != nil {
		return 0, 0, err
	}
	if m.plb != nil {
		if victim, evicted := m.plb.Put(group, newLeaf, false); evicted && victim.Dirty {
			// The evicted label is the only live copy of that group's
			// mapping; write it back verbatim (no remap — the group is not
			// being accessed, its block stays on the cached leaf's path).
			m.plb.writeBacks++
			if err := m.writeLabel(victim.Key, victim.Val); err != nil {
				return 0, 0, err
			}
		}
	}
	return old, newLeaf, nil
}

// writeLabel stores a label into the backing ORAM without consulting this
// interface's PLB — it is the write-back half of the cache, used for dirty
// evictions and flushes. The access recursively walks the chain above the
// backing level like any other backing update.
func (m *oramPosMap) writeLabel(group uint64, leaf uint32) error {
	blk := group / m.labelsPerBlock
	off := (group % m.labelsPerBlock) * labelBytes
	m.h.curChain++
	return m.backing.Update(blk, func(data []byte) {
		binary.LittleEndian.PutUint32(data[off:off+labelBytes], leaf)
	})
}

// pad issues one dummy-shaped access to every level from..top, smallest
// first as a real access touches them, counted as scheduler padding: the
// whole chain for PaddingAccess, or the levels a PLB hit elided, so
// constant-shape hits and misses look alike on the wire.
func (h *ORAM) pad(from int) error {
	for j := len(h.levels) - 1; j >= from; j-- {
		h.curChain++
		if err := h.levels[j].PaddingAccess(); err != nil {
			return err
		}
	}
	return nil
}
