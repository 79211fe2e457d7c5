package dram

// Test-only reference: the FR-FCFS issue path as it stood before the
// decode-once rewrite (PR 13's parent commit), copied verbatim apart from
// the ref prefix on its names and its reused scratch fields turned into
// locals. It re-decodes every window entry at every issue slot, snapshots
// and diffs the whole Stats per access and shifts the whole remaining
// batch on every pick — slow, and exactly the semantics the production
// loop must reproduce. sched_diff_test.go runs both on the same inputs.

// refTimedRequest is one column access with its own earliest-arrival cycle
// and an attribution tag. Batches with heterogeneous arrivals are how the
// bus merges contemporaneous stages from different ports into one
// scheduling window; the tag (a small non-negative index chosen by the
// caller) routes each access's completion and counter delta back to its
// stage.
type refTimedRequest struct {
	Addr  uint64
	Write bool
	At    uint64
	Tag   int
}

// refAccessAllTimed submits a batch of requests carrying per-request arrival
// floors through the configured policy and returns the completion cycle
// of the last request. When tagDone/tagStats are non-nil they must be
// indexed by every request's Tag; each tag's entry accumulates the max
// completion cycle and the Merge of its requests' counter deltas (with
// the high-water fields carrying absolute values, so merging tags
// reproduces the system totals). Requests should be in nondecreasing
// arrival order per channel — slice order is the queue's arrival order.
func (s *System) refAccessAllTimed(reqs []refTimedRequest, tagDone []uint64, tagStats []Stats) uint64 {
	nch := len(s.chans)
	start := make([]int32, nch+1) // the parent reused scratch fields for start, idx, adm and cur
	for i := range reqs {
		start[s.Map(reqs[i].Addr).Channel+1]++
	}
	for c := 0; c < nch; c++ {
		start[c+1] += start[c]
	}
	idx := make([]int32, len(reqs))
	schedAdm := make([]uint64, len(reqs))
	// Stable counting sort by channel: cursor[c] runs from start[c] to
	// start[c+1].
	cur := make([]uint64, nch)
	for c := range cur {
		cur[c] = uint64(start[c])
	}
	for i := range reqs {
		c := s.Map(reqs[i].Addr).Channel
		idx[cur[c]] = int32(i)
		cur[c]++
	}

	var done uint64
	for c := 0; c < nch; c++ {
		if d := s.refDrainChannel(reqs, idx[start[c]:start[c+1]], schedAdm[start[c]:start[c+1]], tagDone, tagStats); d > done {
			done = d
		}
	}
	return done
}

// refDrainChannel issues one channel's segment of the batch. pend holds the
// channel's request indices in arrival order; adm is the parallel
// window-admission clock (entry j is valid once j is inside the window).
func (s *System) refDrainChannel(reqs []refTimedRequest, pend []int32, adm []uint64, tagDone []uint64, tagStats []Stats) uint64 {
	q := s.sched.QueueDepth
	cap_ := s.sched.StarvationCap
	if s.sched.Policy == SchedInOrder {
		q, cap_ = 1, 0
	}
	w := q
	if len(pend) < w {
		w = len(pend)
	}
	// The initial window is admitted at batch submission: each entry may
	// issue as soon as its own arrival allows.
	for j := 0; j < w; j++ {
		adm[j] = reqs[pend[j]].At
	}
	bypass := 0
	var done uint64
	for len(pend) > 0 {
		w = q
		if len(pend) < w {
			w = len(pend)
		}
		if uint64(w) > s.stats.QueueOccupancyPeak {
			s.stats.QueueOccupancyPeak = uint64(w)
		}
		before := s.stats
		pick := 0
		if w > 1 {
			hit := -1
			for j := 0; j < w; j++ {
				loc := s.Map(reqs[pend[j]].Addr)
				if s.chans[loc.Channel].banks[loc.Bank].openRow == int64(loc.Row) {
					hit = j
					break
				}
			}
			if bypass >= cap_ {
				// Forced oldest: the cap overrides the row-hit preference.
				if hit > 0 {
					s.stats.StarvationForced++
				}
			} else if hit > 0 {
				pick = hit
			}
		}
		if pick == 0 {
			bypass = 0
		} else {
			bypass++
		}
		ri := pend[pick]
		r := reqs[ri]
		arr := adm[pick]
		if r.At > arr {
			arr = r.At
		}
		d := s.refAccess(arr, r.Addr, r.Write)
		if s.trace != nil {
			s.trace(int(ri), arr, d)
		}
		if d > done {
			done = d
		}
		if tagDone != nil && d > tagDone[r.Tag] {
			tagDone[r.Tag] = d
		}
		if tagStats != nil {
			diff := s.stats.Sub(before)
			// High-water fields carry absolute values per tag so a Merge
			// over tags reproduces the system's own maxima.
			diff.LastCompletionCycle = d
			diff.QueueOccupancyPeak = s.stats.QueueOccupancyPeak
			tagStats[r.Tag] = tagStats[r.Tag].Merge(diff)
		}
		copy(pend[pick:], pend[pick+1:])
		copy(adm[pick:], adm[pick+1:])
		pend = pend[:len(pend)-1]
		adm = adm[:len(adm)-1]
		// The completed issue admits the next request into the window.
		if len(pend) >= q {
			adm[q-1] = d
		}
	}
	return done
}

// refAccess is the parent's Access, verbatim. It performs one column access arriving at the given cycle and
// returns its completion cycle (data fully transferred).
func (s *System) refAccess(at uint64, addr uint64, write bool) uint64 {
	loc := s.Map(addr)
	c := &s.chans[loc.Channel]
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
			s.stats.Refreshes++
		}
	}

	b := &c.banks[loc.Bank]
	var casEarliest uint64
	if b.openRow != int64(loc.Row) {
		s.stats.RowMisses++
		act := t
		if b.openRow >= 0 {
			pre := max64(t, b.preReadyAt)
			act = pre + uint64(s.t.TRP)
		}
		act = max64(act, c.lastActAt+uint64(s.t.TRRD))
		if c.lastDataEnd > 0 && act < c.lastDataEnd {
			// This bank activates while another bank's data transfer is
			// still on the channel's bus — bank-level parallelism.
			s.stats.BankOverlapActs++
		}
		b.actAt = act
		c.lastActAt = act
		b.openRow = int64(loc.Row)
		casEarliest = act + uint64(s.t.TRCD)
	} else {
		s.stats.RowHits++
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
		s.stats.Writes++
	} else {
		b.preReadyAt = max64(b.actAt+uint64(s.t.TRAS), dataStart)
		s.stats.Reads++
	}
	s.stats.DataBusBusyCycles += uint64(s.t.TBURST)
	if dataEnd > s.stats.LastCompletionCycle {
		s.stats.LastCompletionCycle = dataEnd
	}
	return dataEnd
}
