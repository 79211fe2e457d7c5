package pathoram

import (
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/membus"
)

// Hierarchy is a hierarchical Path ORAM (Section 2.3): the data ORAM's
// position map lives in a second ORAM, recursively, until the final map
// fits on-chip. Like ORAM it is single-threaded — one goroutine owns it —
// and satisfies Client: the sharded serving layer can run one Hierarchy per
// shard behind its request scheduler (see Open with PosMap:
// PosMapRecursive). Its trees are held in construction order: smallest
// position-map ORAM first, data ORAM last.
type Hierarchy struct {
	trees
	inner  *hierarchy.ORAM
	blocks uint64
}

// chainSched is the modeled clock of one hierarchy's recursion chain. In
// the default 5(a) mode it is a single monotone clock (chain): every stage
// of every round arrives after the previous stage completed — the strictly
// serial ordering of Figure 5(a). In overlap mode (Figure 5(b)) it keeps
// two pieces of state instead: dep, the completion of the most recent read
// within the current round (the naming dependency — a level's path address
// comes out of the posmap read before it, so its read may not arrive
// earlier); and ring, the data-ORAM completions of the last depth rounds.
// beginRound resets dep to the oldest windowed completion, so a new
// round's smallest-ORAM stages issue while up to depth-1 earlier rounds
// are still in their data stages — cross-request speculation bounded by
// the window. All state is owned by the hierarchy's single goroutine.
type chainSched struct {
	overlap bool
	chain   uint64   // 5(a): shared serial clock
	dep     uint64   // 5(b): naming dependency within the current round
	ring    []uint64 // 5(b): last depth rounds' data-stage completions
	head    int
}

// beginRound opens a new chain round: the round's first stage may issue as
// soon as the oldest in-window round has completed its data stage.
func (s *chainSched) beginRound() {
	if s.overlap {
		s.dep = s.ring[s.head]
	}
}

func (s *chainSched) noteData(done uint64) {
	s.ring[s.head] = done
	s.head = (s.head + 1) % len(s.ring)
}

// levelTimer chains one hierarchy level's port onto the chain's scheduler:
// within one round, a level's path is named by the position-map access
// that preceded it, so its read must not arrive in modeled time before
// that access completed — even though every level keeps its own port (and
// physical region). Flat shards get the same serialization for free from
// their single port's readyAt; this is the multi-port generalization. In
// overlap mode only reads advance the dependency (a write-back publishes
// no label), so one level's write-back overlaps the next level's read —
// and across rounds the scheduler's window lets consecutive requests
// pipeline. The scheduler is owned by the hierarchy's single goroutine;
// the port methods take the bus lock.
type levelTimer struct {
	port     *membus.Port
	sched    *chainSched
	level    int
	lastRead uint64 // this level's latest read completion (overlap mode)
}

func (t *levelTimer) ReadPath(leaf uint64, skip []bool) {
	if !t.sched.overlap {
		t.port.AdvanceTo(t.sched.chain)
		t.port.ReadPath(leaf, skip)
		if r := t.port.ReadyAt(); r > t.sched.chain {
			t.sched.chain = r
		}
		return
	}
	t.port.AdvanceTo(t.sched.dep)
	t.port.ReadPath(leaf, skip)
	done := t.port.ReadyAt()
	t.lastRead = done
	if done > t.sched.dep {
		t.sched.dep = done
	}
	if t.level == 0 {
		t.sched.noteData(done)
	}
}

func (t *levelTimer) WritePath(leaf uint64, deferred bool) {
	if !t.sched.overlap {
		t.port.AdvanceTo(t.sched.chain)
		t.port.WritePath(leaf, deferred)
		if r := t.port.ReadyAt(); r > t.sched.chain {
			t.sched.chain = r
		}
		return
	}
	// A write-back depends only on its own round's read of the same tree
	// (the path content it rewrites); it publishes nothing the chain below
	// waits for, so it does not advance dep.
	t.port.AdvanceTo(t.lastRead)
	t.port.WritePath(leaf, deferred)
}

// NewHierarchy builds one bare recursion chain from spec (PosMapRecursive
// implied, no serving layer). Every ORAM in it — the data ORAM and all
// position-map ORAMs — gets its own store with the configured encryption
// (under a per-level key derived from Key) and, optionally, integrity
// layer; background eviction is coordinated across the chain exactly as in
// Section 3.1.1. Under BackendDRAM every level also gets its own port on
// the memory bus; under BackendFile its own tree file.
func NewHierarchy(spec Spec) (*Hierarchy, error) {
	spec.PosMap = PosMapRecursive
	p, err := resolveBare(spec, "NewHierarchy")
	if err != nil {
		return nil, err
	}
	return newHierarchy(p, p.bareSeed())
}

// newHierarchy builds the recursive engine e of plan p.
func newHierarchy(p *plan, e engineSeed) (*Hierarchy, error) {
	h := &Hierarchy{blocks: e.blocks}
	sched := &chainSched{overlap: p.Overlap > 0}
	if sched.overlap {
		sched.ring = make([]uint64, p.Overlap)
	}
	hcfg := hierarchy.Config{
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
		NewStore: func(level int, leafLevel, z, blockBytes int) (core.PathStore, error) {
			t, err := p.buildTree(e, level, leafLevel, z, blockBytes)
			if err != nil {
				return nil, err
			}
			h.add(t)
			if p.bus == nil {
				return t.store, nil
			}
			port, err := p.bus.AttachShard(leafLevel, t.busBytes)
			if err != nil {
				return nil, err
			}
			if sched.overlap {
				// Two stages in flight per tree: one round's write-back and the
				// next round's read of the same level may coexist.
				port.SetMaxInFlight(2)
			}
			h.ports = append(h.ports, port)
			return core.NewTimedStore(t.store, &levelTimer{port: port, sched: sched, level: level})
		},
	}
	if sched.overlap {
		hcfg.OnRoundStart = sched.beginRound
	}
	if hook := p.OnPathAccess; hook != nil {
		hcfg.OnPathAccess = func(level int, leaf uint64, _ core.AccessKind) { hook(e.shard, level, leaf) }
	}
	var err error
	if h.inner, err = hierarchy.New(hcfg); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// deriveKey expands the master key into an independent per-level key
// (deriveSubKey in the hierarchy domain). Distinct levels therefore never
// share one-time pads even though bucket IDs repeat across trees.
func deriveKey(master []byte, level int) ([]byte, error) {
	return deriveSubKey(master, domainHierarchy, uint64(level))
}

// Read returns a copy of the data block at addr. One path access in every
// ORAM of the chain (position-map ORAMs first, Section 2.3).
func (h *Hierarchy) Read(addr uint64) ([]byte, error) {
	return h.inner.Access(addr, core.OpRead, nil)
}

// ReadInto reads the data block at addr into the caller-provided dst
// (BlockSize bytes), avoiding the per-read result allocation of Read.
// found reports whether the block was ever written.
func (h *Hierarchy) ReadInto(addr uint64, dst []byte) (found bool, err error) {
	return h.inner.ReadInto(addr, dst)
}

// Write replaces the data block at addr.
func (h *Hierarchy) Write(addr uint64, data []byte) error {
	_, err := h.inner.Access(addr, core.OpWrite, data)
	return err
}

// Update applies fn to the block in one oblivious read-modify-write.
func (h *Hierarchy) Update(addr uint64, fn func(data []byte)) error {
	return h.inner.Update(addr, fn)
}

// Load is the exclusive read through the hierarchy (Section 3.3.1).
func (h *Hierarchy) Load(addr uint64) (data []byte, found bool, group []Block, err error) {
	data, found, slots, err := h.inner.Load(addr)
	if err != nil {
		return nil, false, nil, err
	}
	for _, s := range slots {
		group = append(group, Block{Addr: s.Addr, Data: s.Data})
	}
	return data, found, group, nil
}

// Store returns a checked-out block to the data ORAM's stash without any
// path access.
func (h *Hierarchy) Store(addr uint64, data []byte) error {
	return h.inner.Store(addr, data)
}

// ReadBatch reads every address, back to back on the calling goroutine (a
// single chain has no intra-batch parallelism; Sharded fans hierarchies
// out across shards), under the shared batch contract (see
// serialReadBatch).
func (h *Hierarchy) ReadBatch(addrs []uint64) ([][]byte, error) {
	return serialReadBatch(addrs, h.blocks, h.Read)
}

// WriteBatch writes data[i] to addrs[i], back to back on the calling
// goroutine, under the shared batch contract (see serialWriteBatch).
func (h *Hierarchy) WriteBatch(addrs []uint64, data [][]byte) error {
	return serialWriteBatch(addrs, data, h.blocks, h.Write)
}

// PaddingAccess performs one dummy-shaped access through the whole chain:
// one freshly drawn uniform path read and written back in every ORAM,
// smallest first — the same ORAMs in the same order as a real access, so
// an observer of the memory traffic cannot tell them apart. Counted as
// scheduler padding in every level's Stats.PaddingAccesses.
func (h *Hierarchy) PaddingAccess() error { return h.inner.PaddingAccess() }

// StepBackground performs one unit of deferred work — completing one
// pending path write-back on some level, or (when allowEviction is set
// and some stash sits above the idle low-water mark) issuing one
// coordinated dummy round through the whole chain — and reports which.
// Under AsyncEviction, call it whenever the hierarchy would otherwise sit
// idle; inside a Sharded the shard workers call it for you.
func (h *Hierarchy) StepBackground(allowEviction bool) (BackgroundWork, error) {
	return h.inner.StepBackground(allowEviction)
}

// Flush completes every level's deferred write-backs and fully drains
// coordinated background eviction, leaving the chain in a state the
// synchronous protocol could have produced. Under BackendFile it is also
// the durability epoch for every level's tree file (msync, WAL
// checkpoint). A no-op without AsyncEviction on volatile backends.
func (h *Hierarchy) Flush() error {
	if err := h.inner.Flush(); err != nil {
		return err
	}
	return h.sync()
}

// PendingWriteBacks returns the total deferred path write-backs across
// all levels not yet completed (always 0 without AsyncEviction).
func (h *Hierarchy) PendingWriteBacks() int { return h.inner.PendingWriteBacks() }

// Close quiesces the hierarchy (Flush). On volatile backends it does not
// invalidate the receiver — the chain owns no goroutines; Close is the
// Client interface's quiesce point. Under BackendFile it additionally
// checkpoints and closes every level's tree file (and WAL); the chain
// then rejects further I/O, and the first backend error is the one
// reported even when later levels close cleanly.
func (h *Hierarchy) Close() error {
	err := h.inner.Flush()
	if e := h.close(); err == nil {
		err = e
	}
	return err
}

// NumORAMs returns H, the number of ORAMs in the chain.
func (h *Hierarchy) NumORAMs() int { return h.inner.NumORAMs() }

// OnChipPositionMapBytes returns the final position map's size.
func (h *Hierarchy) OnChipPositionMapBytes() uint64 { return h.inner.OnChipPosMapBytes() }

// OnChipBytes returns the total trusted-memory provision of the chain: the
// final on-chip position map, every level's stash bound, plus the PLB's
// tag/label arrays when one is provisioned. Recursion's whole point is
// shrinking the first term; the others grow with the chain — the
// explorer's on-chip-bytes objective captures all three.
func (h *Hierarchy) OnChipBytes() uint64 {
	return h.inner.OnChipPosMapBytes() + h.inner.StashBoundBytes() + h.inner.PLBOnChipBytes()
}

// PLBOnChipBytes returns the provisioned footprint of the position-map
// lookaside caches (0 without Spec.PLBBytes).
func (h *Hierarchy) PLBOnChipBytes() uint64 { return h.inner.PLBOnChipBytes() }

// ChainLengthHist returns the chain-length histogram: entry n counts
// program operations whose oblivious access needed n ORAM path accesses.
// Without a PLB every operation lands on n = NumORAMs; PLB hits move mass
// to shorter chains, dirty-eviction write-backs to longer ones.
func (h *Hierarchy) ChainLengthHist() []uint64 { return h.inner.ChainLengthHist() }

// LevelStats returns per-level protocol counters (index 0 = data ORAM).
func (h *Hierarchy) LevelStats() []Stats { return h.inner.Stats() }

// Stats returns the aggregate protocol counters of the whole chain: every
// level's counters merged with core.Stats.Merge semantics (counters sum,
// stash peaks take the worst level). One program access contributes H
// RealAccesses — one per level — so DummyPerReal on the merged view is
// the per-path-access rate; DummyRounds/DummyPerReal report the paper's
// per-program-access Equation 2 factor.
func (h *Hierarchy) Stats() Stats {
	var merged Stats
	for _, s := range h.inner.Stats() {
		merged = merged.Merge(s)
	}
	return merged
}

// ResetStats clears every level's protocol counters and the coordinated
// dummy-round count (peak occupancies included; the BlocksInORAM gauges
// survive, as on ORAM).
func (h *Hierarchy) ResetStats() { h.inner.ResetStats() }

// StashSize returns the summed stash occupancy over every level.
func (h *Hierarchy) StashSize() int { return h.inner.StashSize() }

// ExternalMemoryBytes returns the summed external storage footprint of
// every level (0 for plain in-memory stores).
func (h *Hierarchy) ExternalMemoryBytes() uint64 { return h.externalMemoryBytes() }

// TimingStats returns the modeled memory-timing counters merged over the
// chain's per-level ports (counters sum, the completion frontier takes
// the max). The bool is false under BackendMem. Under AsyncEviction
// deferred write-back charges land on the flush schedule; snapshot after
// Flush for access-complete totals (Sharded's snapshots do this
// automatically).
func (h *Hierarchy) TimingStats() (TimingStats, bool) { return h.timingStats() }

// DummyRounds returns the number of coordinated background-eviction rounds.
func (h *Hierarchy) DummyRounds() uint64 { return h.inner.DummyRounds() }

// DummyPerReal returns the hierarchy-level DA/RA factor of Equation 2.
func (h *Hierarchy) DummyPerReal() float64 { return h.inner.DummyPerReal() }

// Layout describes the sized chain for reporting.
func (h *Hierarchy) Layout() []hierarchy.LevelInfo { return h.inner.Layout() }
