// Package membus is the shared memory-channel scheduler of the timed
// serving layer: one DDR3 timing model (internal/dram) owned by a Bus,
// with one Port per ORAM tree. Each port lays its tree's buckets out in
// the shared physical address space (naive or packed-subtree placement,
// Section 3.3.4 of the paper) and charges the tree's path reads and
// write-backs — at column-access granularity — onto the shared channels
// and banks.
//
// Every engine's ports belong to one Chain (chain.go). A hierarchical
// shard (recursive position map, Section 2.3) attaches one port per level
// of its chain, so every ORAM of the hierarchy owns a disjoint row-aligned
// region of the same physical address space and the chain's recursive
// traffic contends on the shared banks like any other tree's; a flat shard
// is a chain of one port (AttachShard). A level's path is named by the
// position-map access before it, so its stage may not arrive in modeled
// time before the stages it depends on completed — Figure 5(a) or 5(b)
// within one access, while different shards' accesses interleave freely.
// The bus resolves those dependencies itself, when it retires a stage.
//
// Time is modeled, not measured: a stage's requests arrive at the cycle
// its chain's dependencies completed, regardless of when the shard's
// worker goroutine got scheduled in real time. Because all ports share one
// dram.System, requests from different shards contend for the same banks
// and data buses — so shard A's stage-5 write-backs and shard B's stage-2
// path reads interleave *within* each other's accesses, the Figure 5
// overlap the paper studies between hierarchy levels, reproduced here
// between shards. Config.Serialize disables the overlap (every stage then
// retires at no earlier than the global completion frontier), giving the
// baseline the intra-access-overlap experiment compares against.
//
// The deferred write-back FIFO of the staged access path maps directly
// onto a memory controller's write buffer: deferred stage-5 charges arrive
// in chain order whenever the flush schedule issues them, reads of
// buckets still sitting in the buffer are skipped (no DRAM traffic), and
// the queue depth (core.Params.MaxDeferredWriteBacks) becomes the
// write-buffer-depth experiment in EXPERIMENTS.md.
//
// Concurrency: shard workers call their ports concurrently; every charge
// takes the bus lock, so the dram.System only ever sees one request stream.
// The lock serializes real time, not modeled time — modeled interleaving
// comes from the chains' dependency arithmetic. Arbitration is
// event-ordered: a charge enqueues its stage on the port's FIFO (or on its
// chain's pending FIFO while a stage it depends on is unretired), and
// stages retire into the shared dram.System in global (arrival cycle, port
// index) order — a stage is applied only once every other port either
// exposes a later-keyed head or is provably unable to submit an earlier
// one. Retirement order is therefore a function of the per-engine stage
// streams alone, not of the goroutine schedule: with deterministic
// per-shard streams, multi-shard cycle totals are exactly reproducible
// across runs and GOMAXPROCS settings (see eventq.go for the argument and
// its caveats).
package membus

import (
	"fmt"
	"sync"

	"repro/internal/dram"
	"repro/internal/placement"
	"repro/internal/treemath"
)

// Layout selects how each shard's buckets map to physical addresses.
type Layout int

const (
	// LayoutSubtree packs each k-level subtree into one node sized to the
	// aggregate row-buffer footprint (rows × channels) — the paper's
	// Figure 6 placement, which raises the row-hit rate of path accesses.
	// The default.
	LayoutSubtree Layout = iota
	// LayoutNaive lays buckets out flat in heap order; consecutive path
	// buckets land in unrelated rows. The baseline the placement
	// experiment compares against.
	LayoutNaive
)

// Config parameterizes a Bus.
type Config struct {
	// Channels is the number of independent DDR3 channels (default 2; the
	// paper sweeps 1/2/4 in Figure 11). Geometry and timing follow the
	// paper's DRAMSim2 setup (dram.MicronGeometry / dram.DDR3Micron).
	Channels int
	// Layout selects the bucket-to-row placement for every attached shard.
	Layout Layout
	// Serialize raises every stage's arrival to the global completion
	// frontier when it retires, one stage at a time: no two stages ever
	// overlap in modeled time, across or within shards. It exists as the
	// measurement baseline for the intra-access overlap result; leave it
	// false for the actual model.
	Serialize bool
	// Sched selects the shared controller's command scheduling
	// (dram.SchedConfig). The zero value is the strictly in-order issue
	// path; Policy dram.SchedFRFCFS turns on the open per-channel queue,
	// and additionally lets the bus merge contemporaneous stages from
	// different ports into one scheduling window (see eventq.go).
	Sched dram.SchedConfig
}

// CyclesPerSecond converts modeled memory cycles to modeled seconds:
// every Timing parameter is denominated in DDR3-1333 bus clocks at
// 666.67 MHz. Paced serving divides ops by (frontier advance /
// CyclesPerSecond) to report ops per modeled second.
const CyclesPerSecond = 666_666_667

// Stats is one port's (or, merged, the whole bus's) modeled-timing view.
type Stats struct {
	// DRAM holds the memory-system counters attributable to this port's
	// requests. Merging every port's DRAM stats reproduces the shared
	// system's own totals.
	DRAM dram.Stats
	// PathReads / PathWrites count stage-2 path reads and stage-5 path
	// write-backs submitted; DeferredWrites is the subset of PathWrites
	// issued from the deferred FIFO (the write buffer) rather than inline.
	PathReads      uint64
	PathWrites     uint64
	DeferredWrites uint64
	// SkippedBuckets counts path-read buckets served from the write buffer
	// instead of DRAM (their live content sat in a pending write-back).
	SkippedBuckets uint64
	// ReadCycles / WriteCycles are the summed stage latencies in memory
	// cycles (completion minus arrival); ReadCycles/PathReads is the
	// modeled latency a client waits on, since the response is computed
	// after stage 2.
	ReadCycles  uint64
	WriteCycles uint64
	// Cycles is the completion frontier: the cycle at which the last
	// charged request finished (max under Merge).
	Cycles uint64
	// AccessBytes is the column-access granularity, carried so bandwidth
	// can be derived from a snapshot alone.
	AccessBytes int
}

// Merge combines two snapshots: counters sum, Cycles takes the max
// (mirroring core.Stats.Merge / dram.Stats.Merge).
func (s Stats) Merge(other Stats) Stats {
	s.DRAM = s.DRAM.Merge(other.DRAM)
	s.PathReads += other.PathReads
	s.PathWrites += other.PathWrites
	s.DeferredWrites += other.DeferredWrites
	s.SkippedBuckets += other.SkippedBuckets
	s.ReadCycles += other.ReadCycles
	s.WriteCycles += other.WriteCycles
	if other.Cycles > s.Cycles {
		s.Cycles = other.Cycles
	}
	if s.AccessBytes == 0 {
		s.AccessBytes = other.AccessBytes
	}
	return s
}

// Delta returns the stats accrued since the prev snapshot (which must be
// an earlier snapshot of the same counters): counters subtract, and the
// frontier fields become the frontier *advance* over the interval, so
// derived rates (RowHitRate, BytesPerCycle, Mean*Cycles) describe the
// interval's traffic alone. Measurement drivers use it to exclude
// pre-fill phases.
func (s Stats) Delta(prev Stats) Stats {
	s.DRAM = s.DRAM.Sub(prev.DRAM)
	s.PathReads -= prev.PathReads
	s.PathWrites -= prev.PathWrites
	s.DeferredWrites -= prev.DeferredWrites
	s.SkippedBuckets -= prev.SkippedBuckets
	s.ReadCycles -= prev.ReadCycles
	s.WriteCycles -= prev.WriteCycles
	s.Cycles -= prev.Cycles
	return s
}

// RowHitRate returns the row-buffer hit rate of this snapshot's traffic.
func (s Stats) RowHitRate() float64 { return s.DRAM.RowHitRate() }

// BytesPerCycle returns achieved bandwidth: bytes moved over the modeled
// wall-clock (the completion frontier). 0 before any traffic.
func (s Stats) BytesPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64((s.DRAM.Reads+s.DRAM.Writes)*uint64(s.AccessBytes)) / float64(s.Cycles)
}

// MeanReadCycles returns the mean modeled stage-2 (path read) latency —
// the memory-cycle cost on an access's critical path.
func (s Stats) MeanReadCycles() float64 {
	if s.PathReads == 0 {
		return 0
	}
	return float64(s.ReadCycles) / float64(s.PathReads)
}

// MeanWriteCycles returns the mean modeled stage-5 (write-back) latency.
func (s Stats) MeanWriteCycles() float64 {
	if s.PathWrites == 0 {
		return 0
	}
	return float64(s.WriteCycles) / float64(s.PathWrites)
}

// Bus owns the shared memory system. Create one per deployment, attach one
// port per shard, and hand each port to its shard's TimedStore.
type Bus struct {
	mu        sync.Mutex
	sys       *dram.System
	layout    Layout
	serialize bool
	// windows merges contemporaneous heads into one scheduling window: the
	// FR-FCFS policy, unless Serialize retires one stage at a time.
	windows  bool
	frontier uint64 // global last completion cycle
	nextBase uint64 // physical base address for the next attached shard
	ports    []*Port

	// Event-ordered arbitration state (see eventq.go).
	queued     int // stages submitted on every port, not yet retired
	valveCount uint64
	batchPorts []*Port // merged-window members (reused)
	batchArr   []uint64
	tagStats   []dram.Stats // per-member counters of the batch being retired (reused)
	pathBuf    []uint64     // bucket addresses of the path being retired (reused)
}

// New builds a bus with the paper's DDR3 geometry and timing.
func New(cfg Config) (*Bus, error) {
	if cfg.Channels == 0 {
		cfg.Channels = 2
	}
	switch cfg.Layout {
	case LayoutSubtree, LayoutNaive:
	default:
		return nil, fmt.Errorf("membus: unknown layout %d", cfg.Layout)
	}
	sys, err := dram.New(dram.MicronGeometry(cfg.Channels), dram.DDR3Micron())
	if err != nil {
		return nil, err
	}
	if err := sys.SetSched(cfg.Sched); err != nil {
		return nil, err
	}
	return &Bus{
		sys:       sys,
		layout:    cfg.Layout,
		serialize: cfg.Serialize,
		windows:   cfg.Sched.Policy == dram.SchedFRFCFS && !cfg.Serialize,
	}, nil
}

// Geometry returns the shared memory system's shape.
func (b *Bus) Geometry() dram.Geometry { return b.sys.Geometry() }

// AttachShard attaches one flat tree: a chain of one port, whose stages
// are serial in modeled time (NewChain(0).Attach(leafLevel, bucketBytes,
// true)).
func (b *Bus) AttachShard(leafLevel, bucketBytes int) (*Port, error) {
	return b.NewChain(0).Attach(leafLevel, bucketBytes, true)
}

// Attach carves out the next region of the physical address space for one
// bucket tree of the chain (leafLevel levels, bucketBytes per bucket on
// the bus) and returns the tree's port; data marks the chain's data ORAM,
// whose reads pace the rounds under Figure 5(b). The region starts on an
// aggregate-row boundary so the subtree layout's nodes align with row
// buffers, and every tree gets its own disjoint region. Attach every tree
// before traffic starts; construction order fixes the address map, so a
// fixed shard (and per-shard level) order gives a reproducible layout.
func (c *Chain) Attach(leafLevel, bucketBytes int, data bool) (*Port, error) {
	if bucketBytes < 1 {
		return nil, fmt.Errorf("membus: bucket size %d must be >= 1", bucketBytes)
	}
	b := c.bus
	tree := treemath.New(leafLevel)
	g := b.sys.Geometry()
	nodeBytes := g.RowBytes * g.Channels
	b.mu.Lock()
	defer b.mu.Unlock()
	var m placement.Mapper
	switch {
	case b.layout == LayoutSubtree && bucketBytes <= nodeBytes:
		sm, err := placement.NewSubtree(tree, bucketBytes, nodeBytes, b.nextBase)
		if err != nil {
			return nil, err
		}
		m = sm
	default:
		// Naive layout, also the fallback when one bucket outgrows the
		// aggregate row (packing cannot help there).
		m = placement.NewNaive(tree, bucketBytes, b.nextBase)
	}
	stride := uint64(nodeBytes)
	b.nextBase += (m.Size() + stride - 1) / stride * stride
	p := &Port{
		chain:       c,
		shard:       len(b.ports),
		data:        data,
		tree:        tree,
		mapper:      m,
		bucketBytes: bucketBytes,
		doneRing:    make([]uint64, 1),
	}
	if c.overlap {
		// Two stages in flight per tree: one round's write-back and the
		// next round's read of the same level may coexist.
		p.doneRing = make([]uint64, 2)
	}
	p.stats.AccessBytes = g.AccessBytes
	b.ports = append(b.ports, p)
	return p, nil
}

// Stats returns the bus-wide view: every port's counters merged. Equal to
// the underlying dram.System's totals on the DRAM side. Like every stats
// query it is a quiesce point: all enqueued stages retire first.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drainAllLocked()
	var merged Stats
	for _, p := range b.ports {
		merged = merged.Merge(p.stats)
	}
	merged.AccessBytes = b.sys.Geometry().AccessBytes
	return merged
}

// ShardStats returns each port's own counters, index-aligned with the
// attach order.
func (b *Bus) ShardStats() []Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drainAllLocked()
	out := make([]Stats, len(b.ports))
	for i, p := range b.ports {
		out[i] = p.stats
	}
	return out
}

// SystemStats exposes the shared memory system's own counters (tests pin
// them against the merged port view).
func (b *Bus) SystemStats() dram.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drainAllLocked()
	return b.sys.Stats()
}

// Cycles returns the global completion frontier: the modeled cycle at
// which the last charged request of any shard finished.
func (b *Bus) Cycles() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drainAllLocked()
	return b.frontier
}

// Frontier returns the completion frontier of the stages retired so far
// without forcing queued stages through — a cheap, slightly stale modeled
// clock for pacing loops (Cycles is the exact, quiescing read).
func (b *Bus) Frontier() uint64 { b.mu.Lock(); defer b.mu.Unlock(); return b.frontier }

// Port is one tree's window onto the bus. It implements core.PathTimer:
// the tree's TimedStore charges stage-2 path reads and stage-5 path
// write-backs through it. A port is owned by its engine's replay
// goroutine; the bus lock makes concurrent ports safe.
type Port struct {
	chain       *Chain
	shard       int
	data        bool // the chain's data ORAM
	tree        treemath.Tree
	mapper      placement.Mapper
	bucketBytes int
	// lastRead is the port's completion frontier (stats.Cycles) when its
	// latest read retired — the floor of the write-back that follows it
	// under Figure 5(b) — and floor the high-water mark of the floors its
	// resolved stages were given.
	lastRead uint64
	floor    uint64
	// doneRing holds the completion cycles of the port's last stages, one
	// per stage it may have in flight (two under Figure 5(b), else one): a
	// new stage may not arrive before the oldest of them completed.
	doneRing []uint64
	ringHead int
	stats    Stats

	// Resolved-stage FIFO for event-ordered arbitration: stages retire
	// from here in global key order (see eventq.go). evq is a ring buffer;
	// skipPool recycles the copied skip masks.
	evq      []stageEvent
	evHead   int
	evCount  int
	skipPool [][]bool
}

// Stats returns a snapshot of this port's counters (a quiesce point: all
// enqueued stages retire first).
func (p *Port) Stats() Stats {
	b := p.chain.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drainAllLocked()
	return p.stats
}

// ReadPath implements core.PathTimer (stage 2): charge one column access
// per AccessBytes of every non-skipped bucket on the path. Skipped buckets
// are write-buffer hits — their content never touches DRAM.
func (p *Port) ReadPath(leaf uint64, skip []bool) { p.charge(leaf, skip, false, false) }

// WritePath implements core.PathTimer (stage 5): charge the full path
// write-back. deferred write-backs arrive on the port's clock at whatever
// point the flush schedule issued them — grouping them is exactly what a
// deeper write buffer buys (fewer read/write bus turnarounds).
func (p *Port) WritePath(leaf uint64, deferred bool) { p.charge(leaf, nil, true, deferred) }

// charge submits one stage's column accesses. The stage does not touch
// the shared bank state here: it goes to its chain, which gives it an
// arrival floor once the stages it depends on have retired, and it
// retires in global (arrival, port) order once no other port can
// contribute an earlier stage — the event-ordered arbitration of
// eventq.go.
func (p *Port) charge(leaf uint64, skip []bool, write, deferred bool) {
	b := p.chain.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	ev := stageEvent{leaf: leaf, write: write, deferred: deferred}
	if skip != nil {
		var buf []bool
		if n := len(p.skipPool); n > 0 {
			buf = p.skipPool[n-1][:0]
			p.skipPool = p.skipPool[:n-1]
		}
		ev.skip = append(buf, skip...)
	}
	b.queued++
	p.chain.submit(p, ev)
	b.drainReadyLocked()
	if b.queued > maxQueuedStages {
		// Overflow valve: a port has gone quiet without a quiesce point
		// while others keep submitting. Forcing the backlog through keeps
		// memory bounded at the cost of the determinism guarantee for this
		// (unsupported) driving pattern.
		b.valveCount++
		b.drainAllLocked()
	}
}

// retireLocked plays the head stage of every member into the shared
// memory system as one batch — member i's column accesses arrive at
// arrs[i] and are tagged i, one address decode per bucket — then does each
// port's completion and attribution bookkeeping and pops the stage.
// Caller holds the bus lock.
func (b *Bus) retireLocked(members []*Port, arrs []uint64) {
	if len(b.tagStats) < len(members) {
		b.tagStats = make([]dram.Stats, len(b.ports))
	}
	g := b.sys.Geometry().AccessBytes
	for slot, p := range members {
		ev := &p.evq[p.evHead]
		bursts := (p.bucketBytes + g - 1) / g
		path := p.mapper.PathAddrs(ev.leaf, b.pathBuf[:0])
		b.pathBuf = path
		if ev.skip != nil {
			// Drop the write-buffer hits in place.
			kept := path[:0]
			for d, base := range path {
				if ev.skip[d] {
					p.stats.SkippedBuckets++
				} else {
					kept = append(kept, base)
				}
			}
			path = kept
		}
		b.sys.Enqueue(arrs[slot], path, bursts, ev.write, slot)
	}
	deltas := b.tagStats[:len(members)]
	b.sys.Drain(deltas)
	peak := b.sys.Stats().QueueOccupancyPeak
	for slot, p := range members {
		ev := &p.evq[p.evHead]
		delta := deltas[slot]
		// The high-water fields carry this port's own view: its stage's
		// completion (a fully skipped stage completes at arrival and
		// advances nothing globally) and the system's cumulative queue
		// peak, so merging ports reproduces the system maxima.
		done := max(arrs[slot], delta.LastCompletionCycle)
		delta.LastCompletionCycle = done
		delta.QueueOccupancyPeak = peak
		p.finishStage(arrs[slot], done, delta, ev.write, ev.deferred)
		p.popHead()
	}
	// Only now, with every member popped, may a chain resolve the stages
	// that waited on these completions.
	for _, p := range members {
		p.chain.release()
	}
}

// finishStage records one retired stage's completion and counters and
// publishes it to the port's chain. Caller holds the bus lock.
func (p *Port) finishStage(at, done uint64, delta dram.Stats, write, deferred bool) {
	b := p.chain.bus
	p.doneRing[p.ringHead] = done
	p.ringHead = (p.ringHead + 1) % len(p.doneRing)
	if done > b.frontier {
		b.frontier = done
	}
	p.stats.DRAM = p.stats.DRAM.Merge(delta)
	if p.stats.Cycles < done {
		p.stats.Cycles = done
	}
	p.chain.retired(p, write)
	if write {
		p.stats.PathWrites++
		if deferred {
			p.stats.DeferredWrites++
		}
		p.stats.WriteCycles += done - at
	} else {
		p.stats.PathReads++
		p.stats.ReadCycles += done - at
	}
}
