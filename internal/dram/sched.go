// Open-queue command scheduling. The paper's design-space numbers assume
// a DRAMSim2-class controller that reorders column accesses for
// row-buffer locality and bank-level parallelism; SchedFRFCFS models that
// controller as a bounded per-channel window scheduled first-ready
// first-come-first-served — row hits first, then oldest — with a
// starvation cap that forces the oldest request after a bounded number of
// bypasses. SchedInOrder keeps the strictly chained issue path the model
// started with, bit for bit.
package dram

import (
	"fmt"
	"math"
	"slices"
)

// SchedPolicy selects how a batch's column accesses are ordered per
// channel.
type SchedPolicy int

const (
	// SchedInOrder issues each channel's requests strictly in arrival
	// order, one in flight: request k+1 enters the bank state machine only
	// when request k's data transfer has completed. The default, and the
	// pre-open-queue model exactly.
	SchedInOrder SchedPolicy = iota
	// SchedFRFCFS holds an open window of up to QueueDepth decoded
	// requests per channel and each issue slot picks the oldest row-buffer
	// hit in the window, falling back to the oldest request outright. The
	// window admits request k+Q when request k completes, so younger
	// requests activate other banks while an older transfer is still on
	// the bus.
	SchedFRFCFS
)

// Scheduler defaults: an 8-deep window matches small controller command
// queues, and 4 bypasses bounds the extra wait a row-conflict request can
// accrue before the cap forces it (see the starvation-bound property
// test).
const (
	DefaultQueueDepth    = 8
	DefaultStarvationCap = 4
)

// SchedConfig parameterizes the per-channel command queue.
type SchedConfig struct {
	Policy SchedPolicy
	// QueueDepth is the open window per channel under SchedFRFCFS
	// (default 8; ignored in order). Depth 1 degenerates to SchedInOrder
	// exactly: a one-entry window has nothing to reorder.
	QueueDepth int
	// StarvationCap bounds how many times younger row hits may bypass the
	// oldest queued request under SchedFRFCFS: after this many consecutive
	// bypasses the oldest issues regardless (default 4). No request ever
	// waits more than QueueDepth*(StarvationCap+1) issue slots.
	StarvationCap int
}

func (c SchedConfig) withDefaults() (SchedConfig, error) {
	switch c.Policy {
	case SchedInOrder, SchedFRFCFS:
	default:
		return c, fmt.Errorf("dram: unknown scheduling policy %d", c.Policy)
	}
	if c.QueueDepth < 0 {
		return c, fmt.Errorf("dram: queue depth %d must be >= 0 (0 = default)", c.QueueDepth)
	}
	if c.StarvationCap < 0 {
		return c, fmt.Errorf("dram: starvation cap %d must be >= 0 (0 = default)", c.StarvationCap)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.StarvationCap == 0 {
		c.StarvationCap = DefaultStarvationCap
	}
	return c, nil
}

// SetSched configures the scheduling policy (zero fields take defaults).
// Call it before traffic; it does not disturb timing state or counters.
func (s *System) SetSched(cfg SchedConfig) error {
	full, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	s.sched = full
	return nil
}

// Sched returns the active scheduling configuration with defaults filled
// in.
func (s *System) Sched() SchedConfig { return s.sched }

// queued is one column access of the open batch, decoded once at Enqueue
// so that the window scan and the bank state machine read only this
// record.
type queued struct {
	row   int64  // compared against the bank's open row
	at    uint64 // earliest issue: arrival, raised to the window admission cycle
	idx   int32  // position in the batch (trace hook)
	tag   int32
	bank  int32
	write bool
}

// Enqueue appends, for each address of addrs in turn (a path stage's
// buckets), n consecutive column accesses to the open batch, the first at
// the address and each AccessBytes further on. They arrive at cycle at and
// carry the attribution tag (a small non-negative index chosen by the
// caller) that routes their counters back to their stage. Batches with
// heterogeneous arrivals are how the bus merges contemporaneous stages
// from different ports into one scheduling window. Enqueue order is each
// channel's queue order and should be nondecreasing in arrival per
// channel. Each address is decoded once and then stepped the way Map
// interleaves: channel first, then column, bank, row. So burst i sits on
// channel (first+i) mod Channels, and each channel's share — every
// Channels-th burst, one column apart — is filled in one go: its queue is
// resliced once per address, and each record is written field by field
// into its slot (a record built on the stack and copied over stalls on
// store forwarding every burst).
func (s *System) Enqueue(at uint64, addrs []uint64, n int, write bool, tag int) {
	nch := s.g.Channels
	per, extra := n/nch, n%nch // each channel's share of one address's bursts
	for _, addr := range addrs {
		first := s.Map(addr)
		for k := 0; k < nch && k < n; k++ {
			c := &s.chans[first.Channel]
			base, share := len(c.queue), per
			if k < extra {
				share++
			}
			q := slices.Grow(c.queue, share)[:base+share]
			c.queue = q
			loc, idx := first, int32(s.enqueued+k)
			for j := base; j < len(q); j++ {
				e := &q[j]
				e.row, e.at, e.idx = int64(loc.Row), at, idx
				e.tag, e.bank, e.write = int32(tag), int32(loc.Bank), write
				idx += int32(nch)
				s.nextCol(&loc)
			}
			if first.Channel++; first.Channel == nch {
				first.Channel = 0
				s.nextCol(&first)
			}
		}
		s.enqueued += n
	}
}

// nextCol steps loc one column access on within its channel: column, then
// bank, then row.
func (s *System) nextCol(loc *Location) {
	if loc.Col++; loc.Col == s.cols {
		loc.Col = 0
		if loc.Bank++; loc.Bank == s.g.Banks {
			loc.Bank = 0
			loc.Row++
		}
	}
}

// Drain issues the open batch through the configured policy, channel by
// channel, and returns the completion cycle of its last request (0 for an
// empty batch). A non-nil tagStats must be indexed by every enqueued tag;
// each entry is overwritten with the counters of its tag's requests, the
// high-water fields carrying absolute values (the tag's last completion,
// the system's queue peak as of its last issue), so merging the entries
// reproduces the batch's contribution to the system totals.
func (s *System) Drain(tagStats []Stats) uint64 {
	for i := range tagStats {
		tagStats[i] = Stats{}
	}
	var done uint64
	for i := range s.chans {
		c := &s.chans[i]
		if d := s.drainChannel(c, tagStats); d > done {
			done = d
		}
		c.queue = c.queue[:0]
	}
	s.enqueued = 0
	for i := range tagStats {
		s.stats = s.stats.Merge(tagStats[i])
	}
	return done
}

// drainChannel issues one channel's share of the open batch. Events are
// counted straight into the issuing request's tag entry (or the system
// totals when the batch is untagged), so an issue slot costs no snapshot
// and no diff; the queue peak is a gauge of the whole system and is kept
// on the system totals, then copied to the tag.
func (s *System) drainChannel(c *channel, tagStats []Stats) uint64 {
	q, starveCap := s.sched.QueueDepth, s.sched.StarvationCap
	inOrder := s.sched.Policy == SchedInOrder
	if inOrder {
		q, starveCap = 1, 0
	}
	// The initial window is admitted at batch submission: each entry may
	// issue as soon as its own arrival allows. Later entries are held to
	// the completion that admits them (below).
	pend := c.queue
	bypass := 0
	var done uint64
	for len(pend) > 0 {
		w := min(q, len(pend))
		if !inOrder && uint64(w) > s.stats.QueueOccupancyPeak {
			s.stats.QueueOccupancyPeak = uint64(w)
		}
		pick, forced := 0, false
		if w > 1 {
			hit := -1
			for j := range pend[:w] {
				if c.banks[pend[j].bank].openRow == pend[j].row {
					hit = j
					break
				}
			}
			if bypass >= starveCap {
				// Forced oldest: the cap overrides the row-hit preference.
				forced = hit > 0
			} else if hit > 0 {
				pick = hit
			}
		}
		if pick == 0 {
			bypass = 0
		} else {
			bypass++
		}
		r := &pend[pick]
		st := &s.stats
		if tagStats != nil {
			st = &tagStats[r.tag]
			st.QueueOccupancyPeak = s.stats.QueueOccupancyPeak
		}
		if forced {
			st.StarvationForced++
		}
		d := s.accessLoc(st, c, int(r.bank), r.row, r.at, r.write)
		if s.trace != nil {
			s.trace(int(r.idx), r.at, d)
		}
		issued := *r
		// Close the gap by shifting the (at most q-1) older entries up and
		// advancing the head: order is kept and the tail never moves.
		if pick > 0 {
			copy(pend[1:pick+1], pend[:pick])
		}
		pend = pend[1:]
		// The completed issue admits the next request into the window.
		if len(pend) >= q && pend[q-1].at < d {
			pend[q-1].at = d
		}
		pend, d = s.issueStreak(st, c, &issued, pend, q, d)
		if d > done {
			done = d
		}
	}
	return done
}

// issueStreak issues, in one pass, the window heads that continue the
// access just issued (prev, completed at d) on its bank, row, direction and
// tag: row hits at the head, which both policies pick. The bank and bus
// state machine reduces to the row-hit recurrence, run on locals and
// stored once; refresh does not, so the streak stops at the first head
// whose arrival reaches it. Trace calls and window admissions stay per
// burst. DESIGN.md ("The replay side, a row run at a time") has the
// argument. It returns the rest of the queue and the last completion.
func (s *System) issueStreak(st *Stats, c *channel, prev *queued, pend []queued, q int, d uint64) ([]queued, uint64) {
	refresh := c.nextRefresh
	if s.t.TREFI == 0 {
		refresh = math.MaxUint64
	}
	b := &c.banks[prev.bank]
	lat, burst := uint64(s.t.CL), uint64(s.t.TBURST)
	if prev.write {
		lat = uint64(s.t.CWL)
	}
	// prev left the bus free at its data start + burst and the bank's next
	// CAS at data start - lat + tCCD, so each hit's data start is the later
	// of its own CAS bound + lat and the last one's + max(tCCD, burst).
	casFloor, step := b.actAt+uint64(s.t.TRCD), max(uint64(s.t.TCCD), burst)
	dataStart := c.busFreeAt - burst
	var n uint64
	for len(pend) > 0 {
		r := &pend[0]
		if r.bank != prev.bank || r.row != prev.row || r.write != prev.write || r.tag != prev.tag || r.at >= refresh {
			break
		}
		dataStart = max(max(r.at, casFloor)+lat, dataStart+step)
		if s.trace != nil {
			s.trace(int(r.idx), r.at, dataStart+burst)
		}
		n++
		pend = pend[1:]
		if len(pend) >= q && pend[q-1].at < dataStart+burst {
			pend[q-1].at = dataStart + burst
		}
	}
	if n == 0 {
		return pend, d
	}
	s.longestStreak = max(s.longestStreak, n)
	busFree := dataStart + burst
	c.busFreeAt, c.lastDataEnd, b.casReadyAt = busFree, busFree, dataStart-lat+uint64(s.t.TCCD)
	if prev.write {
		b.preReadyAt = max(b.actAt+uint64(s.t.TRAS), busFree+uint64(s.t.TWR))
		st.Writes += n
	} else {
		b.preReadyAt = max(b.actAt+uint64(s.t.TRAS), dataStart)
		st.Reads += n
	}
	st.RowHits += n
	st.DataBusBusyCycles += n * burst
	st.LastCompletionCycle = max(st.LastCompletionCycle, busFree)
	return pend, busFree
}
