// Package membus is the shared memory-channel scheduler of the timed
// serving layer: one DDR3 timing model (internal/dram) owned by a Bus,
// with one Port per ORAM tree. Each port lays its tree's buckets out in
// the shared physical address space (naive or packed-subtree placement,
// Section 3.3.4 of the paper) and charges the tree's path reads and
// write-backs — at column-access granularity — onto the shared channels
// and banks.
//
// A flat shard attaches exactly one port. A hierarchical shard (recursive
// position map, Section 2.3) attaches one port per level of its chain, so
// every ORAM of the hierarchy owns a disjoint row-aligned region of the
// same physical address space and the chain's recursive traffic contends
// on the shared banks like any other tree's. Levels of one hierarchy
// chain their ports (AdvanceTo/ReadyAt): a level's path is named by the
// position-map level before it, so its stage may not arrive earlier in
// modeled time than the chain's previous stage completed — the serialized
// Figure 5(a) ordering within one access, while different shards'
// accesses still interleave freely.
//
// Time is modeled, not measured: every port carries its own modeled clock
// (the completion cycle of its last submitted stage), and a stage's
// requests arrive at that clock regardless of when the shard's worker
// goroutine got scheduled in real time. Because all ports share one
// dram.System, requests from different shards contend for the same banks
// and data buses — so shard A's stage-5 write-backs and shard B's stage-2
// path reads interleave *within* each other's accesses, the Figure 5
// overlap the paper studies between hierarchy levels, reproduced here
// between shards. Config.Serialize disables the overlap (every stage then
// arrives at the global completion frontier), giving the baseline the
// intra-access-overlap experiment compares against.
//
// The deferred write-back FIFO of the staged access path maps directly
// onto a memory controller's write buffer: deferred stage-5 charges arrive
// on the port's clock whenever the flush schedule issues them, reads of
// buckets still sitting in the buffer are skipped (no DRAM traffic), and
// the queue depth (core.Params.MaxDeferredWriteBacks) becomes the
// write-buffer-depth experiment in EXPERIMENTS.md.
//
// Concurrency: shard workers call their ports concurrently; every charge
// takes the bus lock, so the dram.System only ever sees one request stream.
// The lock serializes real time, not modeled time — modeled interleaving
// comes from the per-port arrival clocks. Arbitration is event-ordered:
// a charge enqueues its stage (with the arrival floor captured at
// submission) on the port's FIFO, and stages retire into the shared
// dram.System in global (arrival cycle, port index) order — a stage is
// applied only once every other port either exposes a later-keyed head or
// is provably unable to submit an earlier one (its floor and in-flight
// window bound its next arrival from below). Retirement order is therefore
// a function of the per-port stage streams alone, not of the goroutine
// schedule: with deterministic per-shard streams, multi-shard cycle totals
// are exactly reproducible across runs and GOMAXPROCS settings (see
// eventq.go for the argument and its two documented caveats: explicit
// drains at stats/ReadyAt queries, and the overflow valve).
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
	// Serialize issues every stage at the global completion frontier
	// instead of the submitting port's own clock: no two stages ever
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
	frfcfs    bool   // controller policy is dram.SchedFRFCFS
	frontier  uint64 // global last completion cycle
	nextBase  uint64 // physical base address for the next attached shard
	ports     []*Port

	// Event-ordered arbitration state (see eventq.go).
	queued     int // stages enqueued across all ports, not yet retired
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
		frfcfs:    cfg.Sched.Policy == dram.SchedFRFCFS,
	}, nil
}

// Geometry returns the shared memory system's shape.
func (b *Bus) Geometry() dram.Geometry { return b.sys.Geometry() }

// AttachShard carves out the next region of the physical address space for
// one bucket tree (leafLevel levels, bucketBytes per bucket on the bus)
// and returns the tree's port. The region starts on an aggregate-row
// boundary so the subtree layout's nodes align with row buffers. Flat
// shards attach once; hierarchical shards attach once per level of the
// chain, giving every level its own disjoint region. Attach every tree
// before traffic starts; construction order fixes the address map, so a
// fixed shard (and per-shard level) order gives a reproducible layout.
func (b *Bus) AttachShard(leafLevel, bucketBytes int) (*Port, error) {
	if bucketBytes < 1 {
		return nil, fmt.Errorf("membus: bucket size %d must be >= 1", bucketBytes)
	}
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
		bus:         b,
		shard:       len(b.ports),
		tree:        tree,
		mapper:      m,
		bucketBytes: bucketBytes,
		doneRing:    make([]uint64, 1),
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

// Port is one shard's window onto the bus. It implements core.PathTimer:
// the shard's TimedStore charges stage-2 path reads and stage-5 path
// write-backs through it. A port is owned by its shard's worker goroutine;
// the bus lock makes concurrent ports safe.
type Port struct {
	bus         *Bus
	shard       int
	tree        treemath.Tree
	mapper      placement.Mapper
	bucketBytes int
	readyAt     uint64 // modeled completion cycle of this shard's last stage
	floor       uint64 // explicit arrival floor (high-water mark of AdvanceTo)
	// doneRing holds the completion cycles of the last maxInFlight stages:
	// a new stage may not arrive before the oldest of them completed, so at
	// most maxInFlight stages of this port are ever in flight in modeled
	// time. Depth 1 (the default) reproduces the strictly serial port of
	// the Figure 5(a) model — each stage waits for the previous one.
	doneRing []uint64
	ringHead int
	stats    Stats

	// Pending-stage FIFO for event-ordered arbitration: charges enqueue
	// here and retire in global key order (see eventq.go). evq is a ring
	// buffer; skipPool recycles the copied skip masks.
	evq      []stageEvent
	evHead   int
	evCount  int
	skipPool [][]bool
}

// Shard returns the port's attach index.
func (p *Port) Shard() int { return p.shard }

// ReadyAt returns the port's modeled clock: the completion cycle of its
// last charged stage (0 before any traffic). A quiesce point: all
// enqueued stages retire first, so chained single-threaded drivers (the
// hierarchy's levelTimer) observe exactly the pre-event-queue model.
func (p *Port) ReadyAt() uint64 {
	p.bus.mu.Lock()
	defer p.bus.mu.Unlock()
	p.bus.drainAllLocked()
	return p.readyAt
}

// AdvanceTo raises the port's modeled clock to at least cycle: the next
// charged stage arrives no earlier. Hierarchies use it to chain their
// levels' ports — a level's path address comes out of the preceding
// position-map access, so its stage must not be charged before that
// access's completion even though each level keeps its own port.
func (p *Port) AdvanceTo(cycle uint64) {
	p.bus.mu.Lock()
	defer p.bus.mu.Unlock()
	if p.floor < cycle {
		p.floor = cycle
	}
	if p.readyAt < cycle {
		p.readyAt = cycle
	}
}

// SetMaxInFlight bounds how many of this port's stages may overlap in
// modeled time: a stage's arrival is floored at the completion of the
// stage depth submissions earlier (plus any explicit AdvanceTo floor), so
// up to depth stages pipeline and the depth+1-th stalls. Depth 1 — the
// default — is the strictly serial port every construction used before
// overlap existed: each stage waits for its predecessor's completion.
// Call it before the port carries traffic; the hierarchy's Figure 5(b)
// overlap mode uses depth 2 so one round's write-back and the next
// round's read coexist on the same tree.
func (p *Port) SetMaxInFlight(depth int) {
	if depth < 1 {
		depth = 1
	}
	p.bus.mu.Lock()
	defer p.bus.mu.Unlock()
	p.bus.drainAllLocked()
	p.doneRing = make([]uint64, depth)
	for i := range p.doneRing {
		p.doneRing[i] = p.readyAt
	}
	p.ringHead = 0
}

// Stats returns a snapshot of this port's counters (a quiesce point: all
// enqueued stages retire first).
func (p *Port) Stats() Stats {
	p.bus.mu.Lock()
	defer p.bus.mu.Unlock()
	p.bus.drainAllLocked()
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
// the shared bank state here: it is enqueued on this port's FIFO with the
// arrival floor captured at submission, and retires in global (arrival,
// port) order once no other port can contribute an earlier stage — the
// event-ordered arbitration of eventq.go. Under Serialize the stage
// arrives at the global frontier, which is only meaningful at application
// time, so serialized buses quiesce and apply in submission order (the
// legacy baseline semantics).
func (p *Port) charge(leaf uint64, skip []bool, write, deferred bool) {
	b := p.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.serialize {
		b.drainAllLocked()
		p.enqueue(leaf, skip, write, deferred)
		b.retireLocked([]*Port{p}, []uint64{max(p.headArrival(), b.frontier)})
		return
	}
	p.enqueue(leaf, skip, write, deferred)
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
}

// finishStage records one retired stage's completion and counters.
// Caller holds the bus lock.
func (p *Port) finishStage(at, done uint64, delta dram.Stats, write, deferred bool) {
	b := p.bus
	p.doneRing[p.ringHead] = done
	p.ringHead = (p.ringHead + 1) % len(p.doneRing)
	if done > p.readyAt {
		p.readyAt = done
	}
	if done > b.frontier {
		b.frontier = done
	}
	p.stats.DRAM = p.stats.DRAM.Merge(delta)
	if p.stats.Cycles < done {
		p.stats.Cycles = done
	}
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
