// Package dram is an event-driven DDR3 timing model standing in for the
// DRAMSim2 simulator the paper uses (Section 4.2). It models what the
// Figure 11 experiment depends on: per-bank open-row state (row-buffer hits
// vs. misses), ACT/PRE/CAS timing, data-bus serialization with read/write
// turnaround, independent channels, and periodic refresh. The address
// mapping matches the paper: adjacent addresses first differ in channels,
// then columns, then banks, and lastly rows.
package dram

import (
	"fmt"
	"math/bits"
)

// Timing collects DDR3 timing parameters in memory-bus clock cycles.
type Timing struct {
	CL     int // CAS (read) latency
	CWL    int // CAS write latency
	TRCD   int // ACT to CAS
	TRP    int // precharge
	TRAS   int // ACT to precharge
	TBURST int // data-bus occupancy per column access (BL8 -> 4)
	TCCD   int // CAS-to-CAS minimum spacing
	TWR    int // write recovery before precharge
	TWTR   int // write-to-read turnaround
	TRTW   int // read-to-write turnaround (bus gap)
	TRRD   int // ACT-to-ACT across banks
	TREFI  int // refresh interval (0 disables refresh)
	TRFC   int // refresh cycle time
}

// DDR3Micron returns timing close to DRAMSim2's DDR3 micron configuration
// used in the paper (x16 parts, DDR3-1333-class timings).
func DDR3Micron() Timing {
	return Timing{
		CL: 10, CWL: 7, TRCD: 10, TRP: 10, TRAS: 24,
		TBURST: 4, TCCD: 4, TWR: 10, TWTR: 5, TRTW: 2, TRRD: 4,
		TREFI: 5200, TRFC: 88,
	}
}

// Geometry describes the memory system shape.
type Geometry struct {
	Channels    int
	Banks       int // banks per channel
	RowBytes    int // row-buffer size per bank
	AccessBytes int // column access granularity (bytes per burst)
}

// MicronGeometry mirrors the paper's DRAMSim2 setup: 8 banks, 1024 columns
// per row at a 64-bit bus = 8 KB row buffers, 64-byte accesses.
func MicronGeometry(channels int) Geometry {
	return Geometry{Channels: channels, Banks: 8, RowBytes: 8192, AccessBytes: 64}
}

// Validate reports configuration errors.
func (g Geometry) Validate() error {
	switch {
	case g.Channels < 1:
		return fmt.Errorf("dram: need at least one channel")
	case g.Banks < 1:
		return fmt.Errorf("dram: need at least one bank")
	case g.AccessBytes < 1:
		return fmt.Errorf("dram: access granularity must be positive")
	case g.RowBytes < g.AccessBytes || g.RowBytes%g.AccessBytes != 0:
		return fmt.Errorf("dram: row size %d not a multiple of access size %d", g.RowBytes, g.AccessBytes)
	}
	return nil
}

// Location is a decoded physical address.
type Location struct {
	Channel int
	Bank    int
	Row     uint64
	Col     uint64
}

// Request is one column access.
type Request struct {
	Addr  uint64
	Write bool
}

// Stats counts memory-system events.
type Stats struct {
	Reads, Writes       uint64
	RowHits, RowMisses  uint64
	Refreshes           uint64
	DataBusBusyCycles   uint64
	LastCompletionCycle uint64
	// QueueOccupancyPeak is the high-water mark of any channel's open
	// command-queue window (SchedFRFCFS only; SchedInOrder holds one
	// request per channel by construction and leaves it 0). Like
	// LastCompletionCycle it is a high-water mark: max under Merge, advance
	// under Sub.
	QueueOccupancyPeak uint64
	// BankOverlapActs counts row activations issued while the channel's
	// previous data transfer was still in flight — bank-level parallelism
	// that an open queue (or overlapping ports) exposes and a strictly
	// chained single stream cannot.
	BankOverlapActs uint64
	// StarvationForced counts FR-FCFS issue slots where the starvation cap
	// overrode a younger row-hit candidate to force the oldest request.
	StarvationForced uint64
}

// Merge returns the combination of s and other, mirroring core.Stats.Merge:
// additive counters are summed and LastCompletionCycle — a completion-time
// high-water mark, not a count — takes the maximum. The serving layer uses
// it to aggregate per-shard memory traffic into one view; merging every
// shard's counters reproduces the shared memory system's own totals exactly
// (a property the membus tests pin).
func (s Stats) Merge(other Stats) Stats {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.RowHits += other.RowHits
	s.RowMisses += other.RowMisses
	s.Refreshes += other.Refreshes
	s.DataBusBusyCycles += other.DataBusBusyCycles
	s.BankOverlapActs += other.BankOverlapActs
	s.StarvationForced += other.StarvationForced
	if other.LastCompletionCycle > s.LastCompletionCycle {
		s.LastCompletionCycle = other.LastCompletionCycle
	}
	if other.QueueOccupancyPeak > s.QueueOccupancyPeak {
		s.QueueOccupancyPeak = other.QueueOccupancyPeak
	}
	return s
}

// Sub returns the counters accrued between the prev snapshot and s (prev
// must be an earlier snapshot of the same counters): additive counters
// subtract, and the high-water marks (LastCompletionCycle,
// QueueOccupancyPeak) become their advance over the interval.
// membus.Stats.Delta builds its pre-fill-excluded views on it; the
// reflection tests in this package and in membus fail by field name when
// a new counter is missing here or in Merge.
func (s Stats) Sub(prev Stats) Stats {
	s.Reads -= prev.Reads
	s.Writes -= prev.Writes
	s.RowHits -= prev.RowHits
	s.RowMisses -= prev.RowMisses
	s.Refreshes -= prev.Refreshes
	s.DataBusBusyCycles -= prev.DataBusBusyCycles
	s.LastCompletionCycle -= prev.LastCompletionCycle
	s.QueueOccupancyPeak -= prev.QueueOccupancyPeak
	s.BankOverlapActs -= prev.BankOverlapActs
	s.StarvationForced -= prev.StarvationForced
	return s
}

// RowHitRate returns hits / (hits+misses) for this snapshot (0 when the
// snapshot saw no row activations).
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

type bank struct {
	openRow    int64 // -1 = closed
	actAt      uint64
	preReadyAt uint64
	casReadyAt uint64
}

type channel struct {
	banks       []bank
	busFreeAt   uint64
	lastWrite   bool
	lastDataEnd uint64
	lastActAt   uint64
	nextRefresh uint64
	queue       []queued // the open batch's requests for this channel (see sched.go)
}

// System is one memory system instance.
type System struct {
	g        Geometry
	cols     uint64 // column accesses per row
	shifts   decodeShifts
	t        Timing
	sched    SchedConfig
	chans    []channel
	stats    Stats
	enqueued int // requests in the open batch (the next one's trace index)

	// trace, when set, observes every issued column access: the request's
	// index in the submitted batch, its admission cycle, and its completion
	// cycle. Test hook for issue-order and multiset properties; nil in
	// production.
	trace func(reqIdx int, arrival, done uint64)

	longestStreak uint64 // most bursts one issueStreak pass issued (test hook)
}

// New builds a memory system with the default in-order scheduling policy.
func New(g Geometry, t Timing) (*System, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	sched, err := SchedConfig{}.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &System{
		g: g, cols: uint64(g.RowBytes / g.AccessBytes), t: t,
		sched: sched, chans: make([]channel, g.Channels),
	}
	s.shifts = newDecodeShifts(g, s.cols)
	for i := range s.chans {
		s.chans[i].banks = make([]bank, g.Banks)
	}
	s.Reset()
	return s, nil
}

// Reset clears all timing state and statistics, and drops any open batch.
func (s *System) Reset() {
	for i := range s.chans {
		c := &s.chans[i]
		for b := range c.banks {
			c.banks[b] = bank{openRow: -1}
		}
		c.busFreeAt, c.lastDataEnd, c.lastActAt = 0, 0, 0
		c.lastWrite = false
		c.nextRefresh = uint64(s.t.TREFI)
		c.queue = c.queue[:0]
	}
	s.stats = Stats{}
	s.enqueued = 0
}

// Geometry returns the configured shape.
func (s *System) Geometry() Geometry { return s.g }

// Timing returns the configured timing.
func (s *System) Timing() Timing { return s.t }

// Stats returns a snapshot of the counters.
func (s *System) Stats() Stats { return s.stats }

// decodeShifts is Map's decode when every field of the geometry is a power
// of two (every MicronGeometry): each division becomes a shift and each
// remainder a mask. ok is false on any other geometry, and Map divides.
type decodeShifts struct {
	ok                         bool
	access, channel, col, bank uint
}

func newDecodeShifts(g Geometry, cols uint64) decodeShifts {
	var sh [4]uint
	for i, n := range [4]uint64{uint64(g.AccessBytes), uint64(g.Channels), cols, uint64(g.Banks)} {
		if n&(n-1) != 0 {
			return decodeShifts{}
		}
		sh[i] = uint(bits.TrailingZeros64(n))
	}
	return decodeShifts{true, sh[0], sh[1], sh[2], sh[3]}
}

// Map decodes a byte address: channel bits first, then column, bank, row
// (the paper's interleaving, Section 3.3.4).
func (s *System) Map(addr uint64) Location {
	if d := &s.shifts; d.ok {
		u := addr >> d.access
		return Location{
			Channel: int(u & (1<<d.channel - 1)),
			Col:     u >> d.channel & (1<<d.col - 1),
			Bank:    int(u >> (d.channel + d.col) & (1<<d.bank - 1)),
			Row:     u >> (d.channel + d.col + d.bank),
		}
	}
	u := addr / uint64(s.g.AccessBytes)
	var loc Location
	loc.Channel = int(u % uint64(s.g.Channels))
	u /= uint64(s.g.Channels)
	loc.Col = u % s.cols
	u /= s.cols
	loc.Bank = int(u % uint64(s.g.Banks))
	u /= uint64(s.g.Banks)
	loc.Row = u
	return loc
}

// Access performs one column access arriving at the given cycle and
// returns its completion cycle (data fully transferred).
func (s *System) Access(at uint64, addr uint64, write bool) uint64 {
	loc := s.Map(addr)
	return s.accessLoc(&s.stats, &s.chans[loc.Channel], loc.Bank, int64(loc.Row), at, write)
}

// accessLoc runs one decoded column access through channel c's bank and
// bus state machine and counts its events into st: the system totals, or
// the issuing batch's per-tag counters that Drain folds into them.
func (s *System) accessLoc(st *Stats, c *channel, bankIdx int, row int64, at uint64, write bool) uint64 {
	t := at

	// Refresh: close every row and stall through the refresh window.
	if s.t.TREFI > 0 {
		for t+0 >= c.nextRefresh {
			if t < c.nextRefresh+uint64(s.t.TRFC) {
				t = c.nextRefresh + uint64(s.t.TRFC)
			}
			for b := range c.banks {
				c.banks[b].openRow = -1
			}
			c.nextRefresh += uint64(s.t.TREFI)
			st.Refreshes++
		}
	}

	b := &c.banks[bankIdx]
	var casEarliest uint64
	if b.openRow != row {
		st.RowMisses++
		act := t
		if b.openRow >= 0 {
			pre := max64(t, b.preReadyAt)
			act = pre + uint64(s.t.TRP)
		}
		act = max64(act, c.lastActAt+uint64(s.t.TRRD))
		if c.lastDataEnd > 0 && act < c.lastDataEnd {
			// This bank activates while another bank's data transfer is
			// still on the channel's bus — bank-level parallelism.
			st.BankOverlapActs++
		}
		b.actAt = act
		c.lastActAt = act
		b.openRow = row
		casEarliest = act + uint64(s.t.TRCD)
	} else {
		st.RowHits++
		casEarliest = max64(t, b.actAt+uint64(s.t.TRCD))
	}
	casEarliest = max64(casEarliest, b.casReadyAt)

	lat := uint64(s.t.CL)
	if write {
		lat = uint64(s.t.CWL)
	}
	dataStart := max64(casEarliest+lat, c.busFreeAt)
	// Bus turnaround between reads and writes.
	if c.lastDataEnd > 0 && write != c.lastWrite {
		gap := uint64(s.t.TRTW)
		if c.lastWrite && !write {
			gap = uint64(s.t.TWTR) + uint64(s.t.CL)
		}
		dataStart = max64(dataStart, c.lastDataEnd+gap)
	}
	dataEnd := dataStart + uint64(s.t.TBURST)

	c.busFreeAt = dataEnd
	c.lastWrite = write
	c.lastDataEnd = dataEnd
	b.casReadyAt = dataStart - lat + uint64(s.t.TCCD)
	if write {
		b.preReadyAt = max64(b.actAt+uint64(s.t.TRAS), dataEnd+uint64(s.t.TWR))
		st.Writes++
	} else {
		b.preReadyAt = max64(b.actAt+uint64(s.t.TRAS), dataStart)
		st.Reads++
	}
	st.DataBusBusyCycles += uint64(s.t.TBURST)
	if dataEnd > st.LastCompletionCycle {
		st.LastCompletionCycle = dataEnd
	}
	return dataEnd
}

// AccessAll submits a batch arriving at the given cycle under the
// configured scheduling policy. Requests are routed to their channels and
// queued per channel in slice order. Under SchedInOrder (the default) each
// channel's controller holds one request in flight, so request k+1 on a
// channel enters the bank state machine only when request k's data
// transfer has completed. Distinct channels proceed independently — every
// channel's queue starts draining at the batch arrival cycle. Under
// SchedFRFCFS each channel instead holds an open window of QueueDepth
// requests and issues row hits first (see sched.go). It returns the
// completion cycle of the last request.
//
// (Before this queue existed every request was issued at the same arrival
// cycle, so two same-channel requests to different banks would activate
// concurrently as if the controller had unbounded lookahead; the only
// serialization came from the shared data bus. TestDRAMAccessAllQueues
// pins the per-channel chaining.)
func (s *System) AccessAll(at uint64, reqs []Request) uint64 {
	for _, r := range reqs {
		s.Enqueue(at, []uint64{r.Addr}, 1, r.Write, 0)
	}
	return s.Drain(nil)
}

// PeakBytesPerCycle returns the theoretical aggregate data-bus bandwidth:
// AccessBytes per TBURST cycles per channel. The paper's "theoretical"
// series in Figure 11 divides total bytes moved by this rate.
func (s *System) PeakBytesPerCycle() float64 {
	return float64(s.g.Channels) * float64(s.g.AccessBytes) / float64(s.t.TBURST)
}

// RowHitRate returns hits / (hits+misses), the quantity subtree placement
// is designed to raise.
func (s *System) RowHitRate() float64 { return s.stats.RowHitRate() }

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
