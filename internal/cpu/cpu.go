// Package cpu implements the paper's processor timing model (Table 1): an
// in-order, single-issue core with per-kind instruction latencies, the
// exclusive L1/L2 hierarchy from internal/cache, and a pluggable line
// memory (DRAM or Path ORAM). This mirrors the paper's methodology: traces
// feed a timing model, and the ORAM appears as its measured return-data /
// finish-access latencies plus the background-eviction dummy rate
// (Section 4.3, Table 2).
package cpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/trace"
)

// NoSibling marks "no prefetched line" in LineMemory.Fetch results.
const NoSibling = ^uint64(0)

// Config carries the Table 1 core parameters. CPU cycles throughout.
type Config struct {
	ArithLat, MultLat, DivLat       uint64 // 1 / 4 / 12
	FPArithLat, FPMultLat, FPDivLat uint64 // 2 / 4 / 10

	L1SizeBytes, L1Ways int // 32 KB, 4-way
	L2SizeBytes, L2Ways int // 1 MB, 16-way
	LineBytes           int // 128

	L1HitLat, L1MissPenalty uint64 // 2 + 1 (data side)
	L2HitLat, L2MissPenalty uint64 // 10 + 4
}

// Default returns the paper's Table 1 configuration.
func Default() Config {
	return Config{
		ArithLat: 1, MultLat: 4, DivLat: 12,
		FPArithLat: 2, FPMultLat: 4, FPDivLat: 10,
		L1SizeBytes: 32 << 10, L1Ways: 4,
		L2SizeBytes: 1 << 20, L2Ways: 16,
		LineBytes: 128,
		L1HitLat:  2, L1MissPenalty: 1,
		L2HitLat: 10, L2MissPenalty: 4,
	}
}

// LineMemory abstracts main memory at cache-line granularity.
type LineMemory interface {
	// Fetch requests a line at CPU-cycle `now`; it returns when the data
	// is available and an optionally prefetched companion line
	// (super blocks), or NoSibling.
	Fetch(now uint64, line uint64) (readyAt uint64, sibling uint64)
	// Writeback hands an evicted line back to memory. For the exclusive
	// ORAM this is a free stash insert (Section 3.3.1); for DRAM it
	// queues write traffic when dirty.
	Writeback(now uint64, line uint64, dirty bool)
}

// Result summarizes one simulation.
type Result struct {
	Instructions uint64
	Cycles       uint64
	MemAccesses  uint64
	L1Misses     uint64
	L2Misses     uint64
	Writebacks   uint64
	Prefetches   uint64 // super-block siblings installed
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// MPKI returns L2 misses per kilo-instruction.
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 1000 * float64(r.L2Misses) / float64(r.Instructions)
}

// Run executes `instructions` instructions from the generator against the
// hierarchy and memory, returning the timing summary.
func Run(cfg Config, gen trace.Generator, mem LineMemory, instructions uint64) (Result, error) {
	return RunWithWarmup(cfg, gen, mem, 0, instructions)
}

// RunWithWarmup first executes `warmup` instructions to populate the
// caches (the paper fast-forwards 1 billion instructions past
// initialization code before measuring, Section 4.3), then measures
// `instructions` instructions.
func RunWithWarmup(cfg Config, gen trace.Generator, mem LineMemory, warmup, instructions uint64) (Result, error) {
	h, err := cache.NewHierarchy(cfg.L1SizeBytes, cfg.L1Ways, cfg.L2SizeBytes, cfg.L2Ways, cfg.LineBytes)
	if err != nil {
		return Result{}, err
	}

	var res Result
	var now uint64
	var measureStart uint64
	line := uint64(cfg.LineBytes)
	total := warmup + instructions
	for i := uint64(0); i < total; i++ {
		if i == warmup {
			res = Result{}
			measureStart = now
		}
		in := gen.Next()
		now += cfg.kindLatency(in.Kind)
		if in.Kind != trace.Load && in.Kind != trace.Store {
			continue
		}
		res.MemAccesses++
		la := in.Addr / line
		now += cfg.L1HitLat
		r := h.Access(la, in.Kind == trace.Store)
		if r.L1Hit {
			continue
		}
		res.L1Misses++
		now += cfg.L1MissPenalty + cfg.L2HitLat
		if !r.L2Hit {
			res.L2Misses++
			now += cfg.L2MissPenalty
			ready, sibling := mem.Fetch(now, la)
			now = ready
			if sibling != NoSibling {
				for _, v := range h.InsertPrefetch(sibling) {
					mem.Writeback(now, v.Key, v.Dirty)
					res.Writebacks++
				}
				res.Prefetches++
			}
		}
		for _, v := range r.Victims {
			mem.Writeback(now, v.Key, v.Dirty)
			res.Writebacks++
		}
	}
	res.Instructions = instructions
	res.Cycles = now - measureStart
	return res, nil
}

func (c Config) kindLatency(k trace.Kind) uint64 {
	switch k {
	case trace.Mult:
		return c.MultLat
	case trace.Div:
		return c.DivLat
	case trace.FPArith:
		return c.FPArithLat
	case trace.FPMult:
		return c.FPMultLat
	case trace.FPDiv:
		return c.FPDivLat
	default: // Arith, Load, Store base latency
		return c.ArithLat
	}
}

// ORAMMemory models the Path ORAM interface by its measured latencies
// (Table 2): data returns after ReturnLat; the ORAM is busy for
// FinishLat × (1 + DummyRate) per access, serializing back-to-back misses
// (write-back of the current path must finish before the next read starts,
// Section 3.3.2; dummy accesses add occupancy per Equation 1).
type ORAMMemory struct {
	ReturnLat uint64  // CPU cycles until the requested block is available
	FinishLat uint64  // CPU cycles until the access fully completes
	DummyRate float64 // DA/RA measured by the protocol simulator
	// SuperBlock enables pair prefetching (|S| = 2, adjacent lines).
	SuperBlock bool
	// InclusiveWriteback models the inclusive-ORAM baseline of Section
	// 3.3.1: a dirty line evicted from the last-level cache must update
	// the ORAM's stale copy with a full path access. The exclusive design
	// (default) makes Store a free stash insert.
	InclusiveWriteback bool

	freeAt   uint64
	Accesses uint64
	Stores   uint64
}

var _ LineMemory = (*ORAMMemory)(nil)

// Fetch implements LineMemory.
func (m *ORAMMemory) Fetch(now uint64, line uint64) (uint64, uint64) {
	start := now
	if m.freeAt > start {
		start = m.freeAt
	}
	ready := start + m.ReturnLat
	occupancy := float64(m.FinishLat) * (1 + m.DummyRate)
	m.freeAt = start + uint64(occupancy)
	m.Accesses++
	if m.SuperBlock {
		return ready, line ^ 1
	}
	return ready, NoSibling
}

// Writeback implements LineMemory: an exclusive-ORAM Store is a stash
// insert and costs no path access (its amortized cost is inside DummyRate).
// Under InclusiveWriteback, dirty victims occupy the ORAM for a full
// access instead.
func (m *ORAMMemory) Writeback(now uint64, _ uint64, dirty bool) {
	m.Stores++
	if m.InclusiveWriteback && dirty {
		start := now
		if m.freeAt > start {
			start = m.freeAt
		}
		occupancy := float64(m.FinishLat) * (1 + m.DummyRate)
		m.freeAt = start + uint64(occupancy)
		m.Accesses++
	}
}

// DRAMMemory is the insecure baseline: cache lines map directly to DRAM
// and each miss fetches LineBytes of data.
type DRAMMemory struct {
	Sys *dram.System
	// CPUPerDRAMCycle converts memory cycles to CPU cycles (the paper
	// assumes the CPU runs at 4x the DDR3 frequency).
	CPUPerDRAMCycle uint64
	LineBytes       int

	Fetches, WritebacksN uint64
}

var _ LineMemory = (*DRAMMemory)(nil)

// NewDRAMMemory wires a DRAM system as line memory.
func NewDRAMMemory(sys *dram.System, lineBytes int) *DRAMMemory {
	return &DRAMMemory{Sys: sys, CPUPerDRAMCycle: 4, LineBytes: lineBytes}
}

// Fetch implements LineMemory.
func (m *DRAMMemory) Fetch(now uint64, line uint64) (uint64, uint64) {
	m.Fetches++
	at := now / m.CPUPerDRAMCycle
	base := line * uint64(m.LineBytes)
	g := m.Sys.Geometry().AccessBytes
	var done uint64
	for off := 0; off < m.LineBytes; off += g {
		if d := m.Sys.Access(at, base+uint64(off), false); d > done {
			done = d
		}
	}
	ready := done * m.CPUPerDRAMCycle
	if ready < now {
		ready = now
	}
	return ready, NoSibling
}

// Writeback implements LineMemory: only dirty lines cost DRAM writes; clean
// victims are dropped (the conventional, non-ORAM behaviour).
func (m *DRAMMemory) Writeback(now uint64, line uint64, dirty bool) {
	if !dirty {
		return
	}
	m.WritebacksN++
	at := now / m.CPUPerDRAMCycle
	base := line * uint64(m.LineBytes)
	g := m.Sys.Geometry().AccessBytes
	for off := 0; off < m.LineBytes; off += g {
		m.Sys.Access(at, base+uint64(off), true)
	}
}

// PerfectMemory returns lines instantly; useful for isolating core timing
// in tests.
type PerfectMemory struct{}

var _ LineMemory = PerfectMemory{}

// Fetch implements LineMemory.
func (PerfectMemory) Fetch(now uint64, _ uint64) (uint64, uint64) { return now, NoSibling }

// Writeback implements LineMemory.
func (PerfectMemory) Writeback(uint64, uint64, bool) {}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LineBytes <= 0 {
		return fmt.Errorf("cpu: line size must be positive")
	}
	if c.L1SizeBytes <= 0 || c.L2SizeBytes <= 0 {
		return fmt.Errorf("cpu: cache sizes must be positive")
	}
	return nil
}
