// Package core implements the Path ORAM protocol of Ren et al. (ISCA 2013):
// the binary-tree external memory, the stash, greedy path eviction, the
// secure background eviction of Section 3.1.1 (one Evictor, run over a lone
// tree or a hierarchy's levels), super blocks (Section 3.2) and the
// exclusive Load/Store interface (Section 3.3.1).
//
// The protocol logic is independent of how buckets are stored: it talks to
// a PathStore (plain in-memory for fast metadata-only simulation, or the
// encrypting/integrity-verifying store in internal/encrypt) and to a
// PositionMap (an on-chip table, or a map backed by another ORAM as in the
// hierarchical construction of internal/hierarchy).
package core

import (
	"errors"
	"fmt"

	"repro/internal/treemath"
)

// Op selects the operation of an Access, mirroring the paper's
// accessORAM(u, op, b') interface.
type Op int

const (
	// OpRead returns the block's current content.
	OpRead Op = iota
	// OpWrite replaces the block's content.
	OpWrite
)

// UnassignedLeaf is the sentinel stored in position maps for blocks that
// have never been mapped. Valid leaves are < 2^30 (treemath.MaxLeafLevel),
// so the all-ones value is never a real label.
const UnassignedLeaf = ^uint32(0)

// DefaultMaxDummyRun bounds a drain's consecutive dummy rounds.
// Background-eviction livelock is astronomically unlikely (Section 3.1.1
// estimates ~1e-100); the guard turns an impossible hang into a
// diagnosable error.
const DefaultMaxDummyRun = 1 << 20

// DefaultMaxDeferredWriteBacks bounds the deferred write-back queue in
// staged mode (Params.DeferWriteBack). Each pending entry pins at most
// Z(L+1) block copies, so the default keeps memory overhead to a handful
// of paths while still letting a burst of requests respond before any
// write-back I/O happens.
const DefaultMaxDeferredWriteBacks = 8

// ErrLivelock is returned if background eviction issues DefaultMaxDummyRun
// dummy rounds without draining the stash.
var ErrLivelock = errors.New("core: background eviction livelock guard tripped")

// Params configures an ORAM.
type Params struct {
	// LeafLevel is L: the tree has L+1 levels and 2^L leaves.
	LeafLevel int
	// Z is the bucket capacity in blocks.
	Z int
	// BlockBytes is the payload size B. Zero selects metadata-only mode:
	// no payloads are stored and Access returns nil data, which makes the
	// design-space simulations fast.
	BlockBytes int
	// Blocks is the number of addressable program blocks; valid addresses
	// are 0..Blocks-1. (The paper reserves internal address 0 for dummy
	// blocks; that shift happens inside the stores.)
	Blocks uint64
	// StashCapacity is C, the stash size in blocks (at least 1). Background
	// eviction keeps occupancy at or below C - Z(L+1) between accesses, so
	// the stash can never overflow mid-access.
	StashCapacity int
	// SuperBlock is |S|, the static super block size of Section 3.2:
	// groups of SuperBlock adjacent addresses share one position-map entry
	// and move together. 0 or 1 disables merging.
	SuperBlock int
	// BackgroundEviction enables automatic draining after each operation.
	// Hierarchies build their levels with it off and run one Evictor over
	// all of them (Section 3.1.1).
	BackgroundEviction bool
	// FreshFill is the byte replicated into a block the first time it is
	// accessed before ever being written. Data ORAMs use 0; ORAMs holding
	// position-map labels use 0xFF so fresh labels read as UnassignedLeaf.
	FreshFill byte
	// OnPathAccess, when set, observes every path the ORAM touches in
	// order, tagged with what triggered the access. This is the
	// adversary's view used by the Figure 4 attack.
	OnPathAccess func(leaf uint64, kind AccessKind)
	// DeferWriteBack enables the staged access path: each access performs
	// position lookup, path read, stash merge and eviction *placement*
	// synchronously (so stash and position-map state are identical to the
	// synchronous protocol), but the path write-back I/O — serialization,
	// re-encryption, authentication and the store write — is queued and
	// completed later by StepBackground or Flush. Reads
	// of paths whose write-back is still pending are served from the
	// pending buckets (the write buffer), so logical contents are never
	// stale. The caller is responsible for draining: shards' idle pumps
	// do it between requests, and Flush drains everything.
	DeferWriteBack bool
	// MaxDeferredWriteBacks caps the deferred queue length when positive
	// (default DefaultMaxDeferredWriteBacks). Pushing onto a full queue
	// first completes the oldest pending write-back inline, so the queue —
	// and the memory it pins — stays bounded even under sustained load
	// with no idle time.
	MaxDeferredWriteBacks int
	// ConstantTimeStash replaces the stash's early-return scans with
	// fixed-length masked scans over a preallocated window (see
	// stash_ct.go and SECURITY.md): hit position and hit-vs-miss change
	// neither the instruction count nor the memory-touch count of the
	// lookup, write and group-remap scans, closing the stash timing
	// channel of the secure-processor threat model. StashCapacity sizes
	// the window. The stash evolves bit-identically to the default mode;
	// only how scans execute differs.
	ConstantTimeStash bool
}

// GroupSize returns the effective super block size (at least 1).
func (p Params) GroupSize() int {
	if p.SuperBlock < 1 {
		return 1
	}
	return p.SuperBlock
}

// Groups returns the number of position-map entries: ceil(Blocks / |S|).
func (p Params) Groups() uint64 {
	s := uint64(p.GroupSize())
	return (p.Blocks + s - 1) / s
}

// StashEntryOverheadBytes models the on-chip metadata one stash slot
// carries besides its payload: the 64-bit logical address plus the 32-bit
// leaf label. The paper sizes the stash in blocks (Section 4.1.2); the
// design-space explorer's on-chip byte accounting needs the per-entry
// footprint, so the model is fixed here next to the stash parameters.
const StashEntryOverheadBytes = 12

// StashBoundBytes returns the on-chip bytes the stash is provisioned for:
// C slots of payload plus per-entry metadata. This is a static bound fixed
// at construction — the secure processor must reserve it whether or not the
// stash ever fills.
func (p Params) StashBoundBytes() uint64 {
	return uint64(p.StashCapacity) * uint64(p.BlockBytes+StashEntryOverheadBytes)
}

// EvictionThreshold returns the paper's background-eviction threshold
// C - Z(L+1).
func (p Params) EvictionThreshold() int {
	return p.StashCapacity - p.Z*(p.LeafLevel+1)
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.LeafLevel < 0 || p.LeafLevel > treemath.MaxLeafLevel:
		return fmt.Errorf("core: leaf level %d out of range [0,%d]", p.LeafLevel, treemath.MaxLeafLevel)
	case p.Z < 1:
		return fmt.Errorf("core: Z=%d must be >= 1", p.Z)
	case p.Blocks < 1:
		return fmt.Errorf("core: Blocks must be >= 1")
	case p.BlockBytes < 0:
		return fmt.Errorf("core: negative block size")
	case p.SuperBlock < 0:
		return fmt.Errorf("core: negative super block size")
	case p.StashCapacity < 1:
		return fmt.Errorf("core: stash capacity %d must be >= 1", p.StashCapacity)
	case p.BackgroundEviction && p.EvictionThreshold() < 1:
		return fmt.Errorf("core: stash capacity %d leaves no headroom above Z(L+1)=%d",
			p.StashCapacity, p.Z*(p.LeafLevel+1))
	}
	return nil
}

// Stats counts ORAM activity. DummyAccesses / RealAccesses is the DA/RA
// factor of Equation 1.
type Stats struct {
	// RealAccesses counts program-initiated path accesses (Access, Update,
	// Load). Store does not access a path (Section 3.3.1) and is counted
	// separately.
	RealAccesses uint64
	// DummyAccesses counts background-eviction dummy path accesses.
	DummyAccesses uint64
	// PaddingAccesses counts scheduler-issued padding accesses: the dummy
	// path accesses the sharded serving layer injects to give padded
	// batches a fixed, input-independent shard schedule. They are path
	// accesses like any other on the bus; the separate counter makes the
	// padding overhead (PaddingPerReal) measurable.
	PaddingAccesses uint64
	// Stores counts exclusive write-backs into the stash.
	Stores uint64
	// StashPeak is the largest stash occupancy (blocks) ever observed.
	StashPeak int
	// BlocksInORAM tracks how many real blocks currently live in the tree
	// plus stash (i.e. not checked out).
	BlocksInORAM uint64
	// MaxDummyRun is the longest run of consecutive dummy accesses needed
	// to drain the stash.
	MaxDummyRun int
	// DeferredWriteBacks counts path write-backs whose I/O was deferred
	// past the response (staged mode only). Every deferred write-back is
	// eventually completed by StepBackground, Flush or the queue-full
	// inline drain.
	DeferredWriteBacks uint64
	// IdleEvictions counts background-eviction dummy accesses issued by
	// StepBackground during idle time — a subset of DummyAccesses. The
	// remainder were issued inline when an access left the stash above the
	// eviction threshold.
	IdleEvictions uint64
	// PendingWriteBackPeak is the largest deferred write-back queue length
	// ever observed (staged mode only).
	PendingWriteBackPeak int
	// PLBHits / PLBMisses count position-map lookaside cache lookups
	// (Section 3.3.3) against this ORAM: a hit elides the oblivious access
	// this ORAM would otherwise have served, a miss performed it. Always 0
	// outside a hierarchy with a PLB; attributed to the backing level whose
	// traffic the cache filters.
	PLBHits   uint64
	PLBMisses uint64
	// PLBWriteBacks counts dirty PLB entries written back into this ORAM
	// (evictions of modified labels, plus flush-time write-backs). Each one
	// is an extra oblivious access on top of the miss traffic.
	PLBWriteBacks uint64
	// ChainLevels / ChainSamples describe the recursion chain length of
	// program accesses in a hierarchy: ChainSamples counts sampled program
	// operations, ChainLevels sums the ORAM path accesses each needed, so
	// ChainLevels/ChainSamples is the mean chain length (H without a PLB,
	// shorter with one). Recorded on the data level (level 0) only.
	ChainLevels  uint64
	ChainSamples uint64
}

// Merge returns the combination of s and other: additive counters are
// summed, high-water marks take the maximum. The sharded serving layer
// uses it to aggregate per-shard counters into one view; note StashPeak
// then reports the worst single shard, not a sum — per-shard stashes are
// independent on-chip structures.
func (s Stats) Merge(other Stats) Stats {
	s.RealAccesses += other.RealAccesses
	s.DummyAccesses += other.DummyAccesses
	s.PaddingAccesses += other.PaddingAccesses
	s.Stores += other.Stores
	s.BlocksInORAM += other.BlocksInORAM
	s.DeferredWriteBacks += other.DeferredWriteBacks
	s.IdleEvictions += other.IdleEvictions
	s.PLBHits += other.PLBHits
	s.PLBMisses += other.PLBMisses
	s.PLBWriteBacks += other.PLBWriteBacks
	s.ChainLevels += other.ChainLevels
	s.ChainSamples += other.ChainSamples
	if other.StashPeak > s.StashPeak {
		s.StashPeak = other.StashPeak
	}
	if other.MaxDummyRun > s.MaxDummyRun {
		s.MaxDummyRun = other.MaxDummyRun
	}
	if other.PendingWriteBackPeak > s.PendingWriteBackPeak {
		s.PendingWriteBackPeak = other.PendingWriteBackPeak
	}
	return s
}

// DummyPerReal returns DA/RA (0 when no real accesses happened).
func (s Stats) DummyPerReal() float64 { return ratio(s.DummyAccesses, s.RealAccesses) }

// PaddingPerReal returns the padded-batch overhead: scheduler padding
// accesses per real access (0 when no real accesses happened).
func (s Stats) PaddingPerReal() float64 { return ratio(s.PaddingAccesses, s.RealAccesses) }

// PLBHitRate returns the position-map lookaside cache hit rate (0 when no
// PLB lookups happened, i.e. the construction has no PLB).
func (s Stats) PLBHitRate() float64 { return ratio(s.PLBHits, s.PLBHits+s.PLBMisses) }

// MeanChainLength returns the mean number of ORAM path accesses one
// program operation needed (0 outside a hierarchy). Without a PLB this is
// exactly H; PLB hits shorten it.
func (s Stats) MeanChainLength() float64 { return ratio(s.ChainLevels, s.ChainSamples) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ORAM is a single Path ORAM.
type ORAM struct {
	p         Params
	tree      treemath.Tree
	store     PathStore
	pos       PositionMap
	leaves    LeafSource
	stash     stash
	threshold int
	// bg is background eviction over this tree alone. A hierarchy builds
	// its levels with it disabled and runs its own Evictor over them.
	bg Evictor

	// checkedOut maps each address the processor holds (exclusive mode) to
	// its group's current leaf: the leaf tag a secure processor keeps with
	// a cache line, so Store needs no position-map read and the record
	// never outgrows what the processor holds.
	checkedOut map[uint64]uint32

	// deferredStore is store when it distinguishes deferred write-backs
	// (TimedStore tagging stage-5 write-buffer traffic); nil otherwise.
	// Resolved once at construction so the flush hot path skips the type
	// assertion.
	deferredStore deferredWriter

	stats Stats

	// Deferred write-back state (staged mode, Params.DeferWriteBack).
	// pending is the FIFO of computed-but-unwritten paths, stored as a
	// head-indexed ring over one backing slice (bounded by maxDefer, so
	// popping advances pendingHead instead of reslicing — no regrow churn
	// on the hot path); overlay maps a bucket's flat tree index to the
	// pending entry holding its live content, so path reads never see the
	// store's stale copy.
	maxDefer    int
	pending     []*pendingPath
	pendingHead int
	freePending []*pendingPath // recycled entries; bounded by maxDefer+1
	overlay     map[uint64]overlayRef

	// reusable buffers: path is the write-back being placed (its Slab is
	// the stash's), sink the path read in progress
	path    Path
	sink    pathSink
	byDepth [][]int
	poolBuf []int
	placed  []int
	skipBuf []bool
}

// New assembles an ORAM from a validated parameter set, a bucket store, a
// position map and a leaf randomness source.
func New(p Params, store PathStore, pos PositionMap, leaves LeafSource) (*ORAM, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if store == nil || pos == nil || leaves == nil {
		return nil, fmt.Errorf("core: store, position map and leaf source are required")
	}
	tree := treemath.New(p.LeafLevel)
	o := &ORAM{
		p:          p,
		tree:       tree,
		store:      store,
		pos:        pos,
		leaves:     leaves,
		threshold:  p.EvictionThreshold(),
		checkedOut: make(map[uint64]uint32),
		path:       Path{Buckets: make([][]Entry, tree.Levels())},
		byDepth:    make([][]int, tree.Levels()),
	}
	o.bg = Evictor{Trees: []*ORAM{o}, Enabled: p.BackgroundEviction}
	o.deferredStore, _ = store.(deferredWriter)
	if p.DeferWriteBack {
		o.maxDefer = p.MaxDeferredWriteBacks
		if o.maxDefer <= 0 {
			o.maxDefer = DefaultMaxDeferredWriteBacks
		}
		o.overlay = make(map[uint64]overlayRef)
		o.skipBuf = make([]bool, tree.Levels())
	}
	// Worst mid-access occupancy: a full stash plus one whole path.
	window := p.StashCapacity + p.Z*(p.LeafLevel+1)
	o.stash.slab.size = p.BlockBytes
	if p.BlockBytes > 0 {
		o.stash.grow(window)
	}
	if p.ConstantTimeStash {
		o.stash.initCT(window)
	}
	// Presize the eviction scratch so the hot path never grows it.
	for d := range o.byDepth {
		o.path.Buckets[d] = make([]Entry, 0, p.Z)
		o.byDepth[d] = make([]int, 0, window)
	}
	o.poolBuf = make([]int, 0, window)
	o.placed = make([]int, window)
	return o, nil
}

// Params returns the configuration.
func (o *ORAM) Params() Params { return o.p }

// Tree returns the tree geometry.
func (o *ORAM) Tree() treemath.Tree { return o.tree }

// BucketStore returns the PathStore the ORAM was assembled with. Callers
// must not mutate it behind the protocol's back; the accessor exists so
// wiring and equivalence tests can reach through wrappers
// (TimedStore.Inner) to compare tree contents.
func (o *ORAM) BucketStore() PathStore { return o.store }

// Stats returns a snapshot of the activity counters.
func (o *ORAM) Stats() Stats { return o.stats }

// ResetStats clears the activity counters (peak occupancy included).
// BlocksInORAM is a live occupancy gauge, not a counter — it survives the
// reset, or the next Load of a resident block would underflow it.
func (o *ORAM) ResetStats() { o.stats = Stats{BlocksInORAM: o.stats.BlocksInORAM} }

// StashSize returns the current stash occupancy in blocks.
func (o *ORAM) StashSize() int { return o.stash.len() }

// StashAddr returns the address of the i-th stash block, 0 <= i <
// StashSize(), in the stash's current order.
func (o *ORAM) StashAddr(i int) uint64 { return o.stash.entries[i].Addr }

// PendingWriteBacks returns the number of path write-backs whose I/O has
// been deferred and not yet completed: the live length of the deferred
// ring (always 0 outside staged mode).
func (o *ORAM) PendingWriteBacks() int { return len(o.pending) - o.pendingHead }

// group returns the position-map entry index for a program address.
func (o *ORAM) group(addr uint64) uint64 {
	return addr / uint64(o.p.GroupSize())
}

func (o *ORAM) checkAddr(addr uint64) error {
	if addr >= o.p.Blocks {
		return fmt.Errorf("core: address %d out of range [0,%d)", addr, o.p.Blocks)
	}
	return nil
}

// checkResident is checkAddr for the path-accessing operations, which
// also refuse an address the processor holds.
func (o *ORAM) checkResident(addr uint64) error {
	if _, out := o.checkedOut[addr]; out {
		return fmt.Errorf("core: address %d is checked out; use Store to return it", addr)
	}
	return o.checkAddr(addr)
}
