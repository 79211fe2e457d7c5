package pathoram

import (
	crand "crypto/rand"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/encrypt"
	"repro/internal/hierarchy"
	"repro/internal/membus"
	"repro/internal/storage"
	"repro/internal/treemath"
)

// This file is the one construction path every constructor shares: resolve
// turns a Spec into a validated plan (defaults once, one table of knob
// rules, the key and the shared memory bus each made in one place), and
// buildTree turns the plan into one bucket tree's storage stack. A new knob
// is one Spec field, one default here, one rule row and — its text form —
// one flag line in internal/explore.BindSpec.

// rule is one row of the knob table: a condition on the defaulted Spec
// that makes it invalid, and what to tell the caller. Most rows reject a
// knob that would be silently inert on the selected axis values, so a
// design-space sweep never varies a field that changes nothing.
type rule struct {
	violated func(s *Spec) bool
	msg      string
}

var rules = []rule{
	{func(s *Spec) bool { return s.Blocks == 0 }, "Blocks must be >= 1"},
	{func(s *Spec) bool { return s.Shards < 1 }, "Shards must be >= 1"},
	{func(s *Spec) bool { return uint64(s.Shards) > s.Blocks },
		"more Shards than Blocks; every shard needs at least one block"},
	{func(s *Spec) bool { return s.Partition < PartitionStripe || s.Partition > PartitionRandom }, "unknown Partition"},
	{func(s *Spec) bool { return s.PosMap < PosMapOnChip || s.PosMap > PosMapRecursive },
		"unknown position-map policy PosMap"},
	{func(s *Spec) bool { return s.Encryption < EncryptCounter || s.Encryption > EncryptNone }, "unknown Encryption scheme"},
	{func(s *Spec) bool { return s.Backend < BackendMem || s.Backend > BackendFile }, "unknown Backend"},
	{func(s *Spec) bool { return s.DRAMLayout < LayoutSubtree || s.DRAMLayout > LayoutNaive }, "unknown DRAMLayout"},
	{func(s *Spec) bool { return s.DRAMSched < MemSchedInOrder || s.DRAMSched > MemSchedFRFCFS },
		"unknown memory scheduler DRAMSched"},
	{func(s *Spec) bool { return !(s.Utilization > 0 && s.Utilization <= 1) }, "Utilization must lie in (0,1]"},
	{func(s *Spec) bool { return s.LeafLevel < 0 || s.LeafLevel > treemath.MaxLeafLevel },
		"LeafLevel out of range"},
	{func(s *Spec) bool { return s.Integrity && s.Encryption == EncryptNone },
		"integrity verification requires encryption (hashes cover ciphertexts)"},
	// Subkeys are AES-128 blocks of an AES KDF, and a bare tree keeps the
	// same rule: quietly accepting a 32-byte key would downgrade an
	// intended AES-256 setup on some constructors and not others. A key no
	// tree will use (plaintext simulation) may be anything.
	{func(s *Spec) bool {
		return s.Encryption != EncryptNone && s.Key != nil && len(s.Key) != encrypt.KeySize
	},
		"Key must be 16 bytes (every tree encrypts under AES-128)"},
	// One counter pads at most 65536 chunks; a larger bucket would reuse pad
	// blocks. (LeafLevel already keeps trees far below 2^48 bucket IDs.)
	{func(s *Spec) bool {
		return s.Encryption == EncryptCounter && max(encrypt.PlainBucketBytes(s.Z, s.BlockSize),
			encrypt.PlainBucketBytes(s.PosZ, s.PosBlockSize)) > encrypt.MaxCounterBucketBytes
	}, "bucket plaintext Z*(12+BlockSize) exceeds the 1 MiB one counter can pad under EncryptCounter; shrink Z or BlockSize"},

	{func(s *Spec) bool { return !s.AsyncEviction && s.MaxDeferredWriteBacks != 0 },
		"MaxDeferredWriteBacks sizes the deferred write-back queue; set AsyncEviction: true"},

	{func(s *Spec) bool {
		return s.Backend != BackendDRAM && (s.DRAMChannels != 0 || s.DRAMLayout != LayoutSubtree || s.DRAMSerialize)
	}, "DRAMChannels/DRAMLayout/DRAMSerialize parameterize the timed backend; set Backend: BackendDRAM"},
	{func(s *Spec) bool { return s.Backend != BackendDRAM && s.DRAMSched != MemSchedInOrder },
		"DRAMSched parameterizes the timed backend; set Backend: BackendDRAM"},
	{func(s *Spec) bool {
		return s.DRAMSched != MemSchedFRFCFS && (s.DRAMQueueDepth != 0 || s.DRAMStarveCap != 0)
	}, "DRAMQueueDepth/DRAMStarveCap parameterize the open queue; set DRAMSched: MemSchedFRFCFS"},
	{func(s *Spec) bool { return s.DRAMChannels < 0 }, "DRAMChannels must be >= 0 (0 = the default 2)"},
	{func(s *Spec) bool { return s.DRAMQueueDepth < 0 || s.DRAMStarveCap < 0 },
		"DRAMQueueDepth/DRAMStarveCap must be >= 0"},

	{func(s *Spec) bool { return s.Backend != BackendFile && (s.Dir != "" || s.WAL || s.WALDepth != 0) },
		"Dir/WAL/WALDepth parameterize the persistent backend; set Backend: BackendFile"},
	{func(s *Spec) bool { return s.Backend == BackendFile && s.Dir == "" },
		"BackendFile needs Dir (where the tree files live)"},
	{func(s *Spec) bool { return s.Backend == BackendFile && s.BlockSize == 0 },
		"BackendFile persists payloads; metadata-only mode (BlockSize 0) has nothing to persist"},
	{func(s *Spec) bool { return !s.WAL && s.WALDepth != 0 }, "WALDepth bounds the write-ahead log; set WAL: true"},
	{func(s *Spec) bool { return s.WALDepth < 0 }, "WALDepth must be >= 0"},

	{func(s *Spec) bool {
		return s.PosMap == PosMapOnChip && (s.PosBlockSize != 0 || s.OnChipPosMapMax != 0 || s.PosZ != 0)
	}, "PosBlockSize/OnChipPosMapMax/PosZ parameterize the recursive position map; set PosMap: PosMapRecursive"},
	{func(s *Spec) bool {
		return s.PosMap == PosMapOnChip && (s.PLBBytes != 0 || s.PLBConstantShape || s.Overlap != 0)
	}, "PLBBytes/PLBConstantShape/Overlap accelerate the recursive position-map chain; set PosMap: PosMapRecursive"},
	{func(s *Spec) bool { return s.PLBConstantShape && s.PLBBytes == 0 },
		"PLBConstantShape pads PLB hits; set PLBBytes > 0"},
	{func(s *Spec) bool { return s.Overlap < 0 }, "Overlap must be >= 0"},
	{func(s *Spec) bool { return s.Overlap > 0 && s.Backend != BackendDRAM },
		"Overlap schedules modeled memory time; set Backend: BackendDRAM"},
	{func(s *Spec) bool { return s.Overlap > 0 && s.DRAMSerialize },
		"Overlap and DRAMSerialize are contradictory schedules; drop one"},
}

// plan is a resolved Spec: defaults applied, every rule passed, the key
// drawn or copied, and — under BackendDRAM — the one memory bus every tree
// of the construction attaches to. Engines are built from it directly.
type plan struct {
	Spec
	bus *membus.Bus
}

// Validate reports the first knob rule the Spec breaks — the error every
// constructor would return for it — without building anything.
func (s Spec) Validate() error {
	_, err := s.defaulted()
	return err
}

// defaulted applies the defaults and then the rule table.
func (s Spec) defaulted() (*plan, error) {
	p := &plan{Spec: s}
	if p.Shards == 0 {
		p.Shards = 1
	}
	if p.Z == 0 {
		p.Z = 3
	}
	if p.Utilization == 0 {
		p.Utilization = 0.5
	}
	if p.StashCapacity == 0 {
		p.StashCapacity = 200
	}
	if p.SuperBlockSize == 0 {
		p.SuperBlockSize = 1
	}
	if p.PosMap == PosMapRecursive {
		if p.PosZ == 0 {
			p.PosZ = 3
		}
		if p.PosBlockSize == 0 {
			p.PosBlockSize = 32
		}
	} else if p.BlockSize == 0 {
		// A metadata-only flat tree has nothing to encrypt. (A recursive
		// one still encrypts its position-map levels, which always carry
		// payloads.)
		p.Encryption = EncryptNone
	}
	for _, r := range rules {
		if r.violated(&p.Spec) {
			return nil, fmt.Errorf("pathoram: %s", r.msg)
		}
	}
	return p, nil
}

// resolve is step one of every constructor.
func resolve(spec Spec) (*plan, error) {
	p, err := spec.defaulted()
	if err != nil {
		return nil, err
	}
	if p.Key == nil {
		p.Key = make([]byte, encrypt.KeySize)
		if _, err := crand.Read(p.Key); err != nil {
			return nil, fmt.Errorf("pathoram: drawing key: %w", err)
		}
	} else {
		// Copy so a caller mutating its slice afterwards cannot desync the
		// schemes built from it.
		p.Key = append([]byte(nil), p.Key...)
	}
	if p.Backend == BackendDRAM {
		// One memory scheduler for the whole construction: every tree's
		// path reads and write-backs land on the same modeled channels
		// (the attach order fixes the physical address map).
		layout, policy := membus.LayoutSubtree, dram.SchedInOrder
		if p.DRAMLayout == LayoutNaive {
			layout = membus.LayoutNaive
		}
		if p.DRAMSched == MemSchedFRFCFS {
			policy = dram.SchedFRFCFS
		}
		if p.bus, err = membus.New(membus.Config{
			Channels:  p.DRAMChannels,
			Layout:    layout,
			Serialize: p.DRAMSerialize,
			Sched:     dram.SchedConfig{Policy: policy, QueueDepth: p.DRAMQueueDepth, StarvationCap: p.DRAMStarveCap},
		}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// engineSeed is what distinguishes one engine of a construction from its
// siblings: which shard it reports as, how many blocks it serves, its key
// and generator (never shared between engines) and its tree-file prefix.
type engineSeed struct {
	shard  int
	blocks uint64
	key    []byte
	rand   *rand.Rand
	name   string
}

// newEngine is the one engine builder — the only place a chain is sized
// and assembled, for the bare constructors and for every shard of the
// serving layer. A flat engine (PosMapOnChip) is the chain of length one:
// the on-chip cap is lifted, so sizing stops after the data ORAM. What
// PosMap still selects besides that cap is listed in DESIGN.md ("One
// engine"): the data-tree sizing rule here and buildTree's file names and
// key domain. On error nothing stays open.
func (p *plan) newEngine(e engineSeed) (_ *ORAM, err error) {
	o := &ORAM{blocks: e.blocks}
	defer func() {
		if err != nil {
			o.close()
		}
	}()
	var chain *membus.Chain
	if p.bus != nil {
		// Every tree's port joins the engine's one chain, which orders its
		// stages in modeled time (Figure 5(a), or 5(b) under Overlap).
		// Modeled time is replayed one step behind the protocol: the ports
		// and round starts are reached only through the engine's lane.
		chain = p.bus.NewChain(p.Overlap)
		o.bus, o.lane = p.bus, &timingLane{round: chain.RoundStart}
	}
	cfg := hierarchy.Config{
		Blocks:                e.blocks,
		DataBlockBytes:        p.BlockSize,
		DataZ:                 p.Z,
		PosZ:                  p.PosZ,
		DataUtilization:       p.Utilization,
		DataLeafLevel:         p.LeafLevel,
		PosBlockBytes:         p.PosBlockSize,
		OnChipPosMapMax:       p.OnChipPosMapMax,
		SuperBlock:            p.SuperBlockSize,
		StashCapacity:         p.StashCapacity,
		BackgroundEviction:    true,
		DeferWriteBack:        p.AsyncEviction,
		MaxDeferredWriteBacks: p.MaxDeferredWriteBacks,
		ConstantTimeStash:     p.ConstantTimeStash,
		Leaves:                leafSource(e.rand),
		PLBBytes:              p.PLBBytes,
		PLBConstantShape:      p.PLBConstantShape,
	}
	if p.PosMap == PosMapOnChip {
		cfg.DataLeafLevel = p.leafLevel(e.blocks)
		cfg.OnChipPosMapMax = math.MaxUint64
	}
	if p.Overlap > 0 {
		cfg.OnRoundStart = o.lane.roundStart
	}
	if hook := p.OnPathAccess; hook != nil {
		cfg.OnPathAccess = func(level int, leaf uint64, _ core.AccessKind) { hook(e.shard, level, leaf) }
	}
	cfg.NewStore = func(level int, leafLevel, z, blockBytes int) (core.PathStore, error) {
		t, err := p.buildTree(e, level, leafLevel, z, blockBytes)
		if err != nil {
			return nil, err
		}
		o.add(t)
		if p.bus == nil {
			return t.store, nil
		}
		port, err := chain.Attach(leafLevel, t.busBytes, level == 0)
		if err != nil {
			return nil, err
		}
		return core.NewTimedStore(t.store, o.lane.attach(port))
	}
	if o.inner, err = hierarchy.New(cfg); err != nil {
		return nil, err
	}
	// Chain length is known only after sizing, so the rule table cannot
	// see this inert knob: a PLB caches position-map ORAM lookups, and a
	// chain of one has no position-map ORAM.
	if p.PLBBytes > 0 && o.inner.NumORAMs() == 1 {
		return nil, fmt.Errorf("pathoram: PLBBytes caches position-map ORAM lookups, but the whole position map (%d bytes) fits on chip and the chain is one ORAM; lower OnChipPosMapMax below it or drop PLBBytes",
			o.inner.OnChipPosMapBytes())
	}
	return o, nil
}

// streams derives the serving layer's independent generators, each seeded
// from one draw on Rand: one per shard in shard order, then the router's
// (only when PartitionRandom has one), then the padding drawer's. That
// order is part of every seeded replay. All nil when Rand is nil.
func (p *plan) streams() (shards []*rand.Rand, router, padding *rand.Rand) {
	derive := func() *rand.Rand {
		if p.Rand == nil {
			return nil
		}
		return rand.New(rand.NewSource(p.Rand.Int63()))
	}
	shards = make([]*rand.Rand, p.Shards)
	for i := range shards {
		shards[i] = derive()
	}
	if p.Partition == PartitionRandom {
		router = derive()
	}
	return shards, router, derive()
}

// leafSource wraps a generator as a leaf source, falling back to
// crypto/rand when the construction is not deterministic.
func leafSource(r *rand.Rand) core.LeafSource {
	if r != nil {
		return core.NewMathLeafSource(r)
	}
	return core.NewCryptoLeafSource()
}

// leafLevel returns the data-tree depth for an engine of the given size:
// the explicit override, or the shallowest tree that keeps the configured
// utilization (and holds every block).
func (p *plan) leafLevel(blocks uint64) int {
	if p.LeafLevel > 0 {
		return p.LeafLevel
	}
	slots := uint64(float64(blocks) / p.Utilization)
	return analysis.MinLevelsForBlocks(max(slots, blocks), p.Z)
}

// tree is one bucket tree's storage stack, as built by buildTree.
type tree struct {
	store core.PathStore
	// busBytes is the footprint one bucket occupies on the modeled memory
	// bus: the padded external stride of the tree's scheme, which for
	// plain trees is the plaintext serialization padded to the DRAM access
	// granularity — metadata-only trees still move their headers.
	busBytes int
	// footprint accounts external memory.
	footprint interface{ MemoryBytes() uint64 }
	// persist is the durable storage under the store (BackendFile only).
	persist storage.Storage
}

// buildTree is step two of every constructor, run once per level of the
// engine's chain: it builds the store of one tree, leaving only the timing
// attachment to newEngine. A tree that is neither encrypted nor on Dir's
// files is an unserialized core.MemStore; every other tree is one
// encrypt.Store under its scheme (counter, strawman, or the identity
// PlainScheme), optionally authenticating, over a private arena or the
// tree file. Trees of a PosMapRecursive engine are named <prefix>-l<level>
// and encrypt under a per-level subkey; a flat engine's one tree keeps the
// bare prefix and the engine key (engine_golden_test.go pins the resulting
// files). On error nothing stays open.
func (p *plan) buildTree(e engineSeed, level, leafLevel, z, blockBytes int) (t tree, err error) {
	numBuckets := treemath.New(leafLevel).NumBuckets()
	name, key := e.name, e.key
	if p.PosMap == PosMapRecursive {
		name = fmt.Sprintf("%s-l%d", name, level)
	}
	var scheme encrypt.Scheme = encrypt.PlainScheme{}
	// Metadata-only trees have nothing to encrypt.
	if p.Encryption != EncryptNone && blockBytes > 0 {
		if p.PosMap == PosMapRecursive {
			if key, err = deriveKey(key, level); err != nil {
				return tree{}, err
			}
		}
		switch {
		case p.Encryption == EncryptCounter:
			scheme, err = encrypt.NewCounterScheme(key, numBuckets)
		case e.rand != nil:
			scheme, err = encrypt.NewStrawmanScheme(key, e.rand)
		default:
			scheme, err = encrypt.NewStrawmanScheme(key, crand.Reader)
		}
		if err != nil {
			return tree{}, err
		}
	}
	t.busBytes = encrypt.PaddedBucketBytes(scheme, z, blockBytes)
	if _, plain := scheme.(encrypt.PlainScheme); plain && p.Backend != BackendFile {
		ms, err := core.NewMemStore(leafLevel, z, blockBytes)
		t.store, t.footprint = ms, ms
		return t, err
	}
	if p.Backend == BackendFile {
		// The mmap'd flat tree file at Dir/<name>.tree, optionally wrapped
		// in the write-ahead log at Dir/<name>.wal (replaying any
		// crash-left prefix).
		if err := os.MkdirAll(p.Dir, 0o755); err != nil {
			return tree{}, fmt.Errorf("pathoram: creating Dir: %w", err)
		}
		base := filepath.Join(p.Dir, name)
		if t.persist, err = storage.OpenFile(base+".tree", numBuckets, t.busBytes); err != nil {
			return tree{}, err
		}
		defer func() {
			if err != nil {
				t.persist.Close()
				t = tree{}
			}
		}()
		if p.WAL {
			w, err := storage.OpenWAL(t.persist, base+".wal", storage.WALConfig{CheckpointEvery: p.WALDepth})
			if err != nil {
				return t, err
			}
			t.persist = w
		}
	}
	scfg := encrypt.StoreConfig{LeafLevel: leafLevel, Z: z, BlockBytes: blockBytes, Scheme: scheme, Backing: t.persist}
	if p.Integrity {
		scfg.Auth = encrypt.NewAuthTree(leafLevel, z, blockBytes, scheme)
	}
	es, err := encrypt.NewStore(scfg)
	if err != nil {
		return t, err
	}
	t.store, t.footprint = es, es
	return t, nil
}

// deriveKey expands the master key into an independent per-level key
// (deriveSubKey in the hierarchy domain). Distinct levels therefore never
// share one-time pads even though bucket IDs repeat across trees.
func deriveKey(master []byte, level int) ([]byte, error) {
	return deriveSubKey(master, domainHierarchy, uint64(level))
}

// trees is the storage-side state of the bucket trees one engine owns, in
// construction order: one entry per level of its chain (smallest
// position-map ORAM first, data ORAM last) — one in all for a flat ORAM.
type trees struct {
	// bus is the construction's memory bus under BackendDRAM (a bare
	// engine's own; every shard's shared one), where each tree has a port,
	// and lane the replay lane every charge reaches them through (both nil
	// otherwise).
	bus  *membus.Bus
	lane *timingLane
	// footprints collects the per-tree external-memory accountants.
	footprints []interface{ MemoryBytes() uint64 }
	// persists holds each tree's durable storage under BackendFile.
	persists []storage.Storage
}

// add takes ownership of a built tree's handles.
func (ts *trees) add(t tree) {
	ts.footprints = append(ts.footprints, t.footprint)
	if t.persist != nil {
		ts.persists = append(ts.persists, t.persist)
	}
}

// sync makes every tree durable (msync; WAL checkpoint and truncate),
// reporting the first error.
func (ts *trees) sync() error {
	var first error
	for _, p := range ts.persists {
		if err := p.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close replays what the lane still holds and stops its goroutine, then
// checkpoints and closes every tree file (and WAL), reporting the first
// error even when later trees close cleanly.
func (ts *trees) close() error {
	ts.lane.close()
	var first error
	for _, p := range ts.persists {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// externalMemoryBytes sums the external storage footprint of every tree.
func (ts *trees) externalMemoryBytes() uint64 {
	var total uint64
	for _, f := range ts.footprints {
		total += f.MemoryBytes()
	}
	return total
}

// timingStats reads the bus's modeled memory-timing counters (every port
// merged: counters sum, the completion frontier takes the max), after the
// lane has replayed every charge recorded so far. The bool is false when no
// model is attached.
func (ts *trees) timingStats() (TimingStats, bool) {
	if ts.bus == nil {
		return TimingStats{}, false
	}
	ts.lane.quiesce()
	return ts.bus.Stats(), true
}
