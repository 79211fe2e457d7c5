// Event-ordered arbitration. Charges do not touch the shared bank state
// at submission: each stage is enqueued on its port's FIFO carrying the
// arrival floor captured at submission, and stages retire into the
// dram.System in global (arrival cycle, port index) order.
//
// Determinism argument. A queued stage's arrival is a function of its
// port's own stream alone: max(the AdvanceTo floor at submission, the
// completion of the stage maxInFlight retirements back). A stage retires
// only when it holds the minimum key among present heads AND every port
// with an empty FIFO is provably unable to submit an earlier-keyed stage:
// that port's next arrival is bounded below by max(its current floor, the
// minimum of its in-flight window), both monotone in its own stream. So
// the retirement sequence — and with it every bank/bus/row interaction in
// the shared dram.System — is a function of the per-port stage streams,
// not of which goroutine won the bus lock; deterministic per-shard
// streams give bit-identical cycle totals across runs and GOMAXPROCS
// settings.
//
// Under the FR-FCFS policy retirement additionally merges contemporaneous
// heads — every head within reorderWindowCycles of the minimum — into one
// scheduling window submitted as a single per-request-arrival batch, so
// the open queue can interleave different ports' stages (a write-back's
// row hits can beat another shard's conflicting activate). The window
// only forms once every non-contributing port is provably beyond it,
// which keeps the batch composition schedule-independent by the same
// argument.
//
// Two documented caveats bound the guarantee: (1) stats/ReadyAt queries
// are quiesce points that retire everything present, so drivers that
// query at schedule-dependent instants (concurrent hierarchy chains
// polling mid-flight) reintroduce schedule dependence; (2) if a port goes
// quiet without a quiesce point while others keep submitting, the
// overflow valve force-drains at maxQueuedStages to bound memory.
package membus

const (
	// reorderWindowCycles is the merged-window span under FR-FCFS: heads
	// within this many cycles of the oldest head schedule as one batch.
	// It approximates how far apart in modeled time two stages can be and
	// still coexist in a real controller's command queue (a path stage
	// spans roughly 1-3k cycles).
	reorderWindowCycles = 4096
	// maxQueuedStages is the overflow valve on the total number of
	// enqueued, unretired stages across all ports.
	maxQueuedStages = 1 << 15
)

// stageEvent is one pending charge: the stage's protocol content plus the
// arrival floor captured at submission.
type stageEvent struct {
	leaf     uint64
	skip     []bool // pooled copy; nil when nothing is skipped
	write    bool
	deferred bool
	floor    uint64
}

// enqueue appends one stage to the port's FIFO. Caller holds the bus lock.
func (p *Port) enqueue(leaf uint64, skip []bool, write, deferred bool) {
	if p.evCount == len(p.evq) {
		n := len(p.evq) * 2
		if n == 0 {
			n = 8
		}
		grown := make([]stageEvent, n)
		for i := 0; i < p.evCount; i++ {
			grown[i] = p.evq[(p.evHead+i)%len(p.evq)]
		}
		p.evq = grown
		p.evHead = 0
	}
	ev := &p.evq[(p.evHead+p.evCount)%len(p.evq)]
	*ev = stageEvent{leaf: leaf, write: write, deferred: deferred, floor: p.floor}
	if skip != nil {
		var buf []bool
		if n := len(p.skipPool); n > 0 {
			buf = p.skipPool[n-1][:0]
			p.skipPool = p.skipPool[:n-1]
		}
		ev.skip = append(buf, skip...)
	}
	p.evCount++
	p.bus.queued++
}

// popHead discards the port's head event after retirement, recycling its
// skip mask. Caller holds the bus lock.
func (p *Port) popHead() {
	ev := &p.evq[p.evHead]
	if ev.skip != nil {
		p.skipPool = append(p.skipPool, ev.skip)
		ev.skip = nil
	}
	p.evHead = (p.evHead + 1) % len(p.evq)
	p.evCount--
	p.bus.queued--
}

// headArrival returns the arrival cycle of the port's oldest queued
// stage: its submission floor, no earlier than the completion of the
// stage maxInFlight retirements back. Caller holds the bus lock.
func (p *Port) headArrival() uint64 {
	arr := p.evq[p.evHead].floor
	if oldest := p.doneRing[p.ringHead]; oldest > arr {
		arr = oldest
	}
	return arr
}

// lowerBound bounds from below the arrival of any stage this port may
// submit in the future: its floor only rises, and a future stage's
// in-flight-window constraint is at least the minimum completion
// currently in the ring. Caller holds the bus lock.
func (p *Port) lowerBound() uint64 {
	lb := p.floor
	ringMin := p.doneRing[0]
	for _, d := range p.doneRing[1:] {
		if d < ringMin {
			ringMin = d
		}
	}
	if ringMin > lb {
		lb = ringMin
	}
	return lb
}

// minHeadLocked returns the port whose head stage has the globally
// smallest (arrival, port index) key, with its arrival. Caller holds the
// bus lock; at least one port must have a queued stage.
func (b *Bus) minHeadLocked() (*Port, uint64) {
	var best *Port
	var bestArr uint64
	for _, p := range b.ports {
		if p.evCount == 0 {
			continue
		}
		arr := p.headArrival()
		if best == nil || arr < bestArr {
			best, bestArr = p, arr
		}
	}
	return best, bestArr
}

// drainReadyLocked retires every stage that is provably next in global
// key order, stopping at the first stage some idle port could still
// preempt. Caller holds the bus lock.
func (b *Bus) drainReadyLocked() {
	for b.queued > 0 {
		if b.frfcfs {
			if !b.retireWindowLocked(true) {
				return
			}
			continue
		}
		cand, arr := b.minHeadLocked()
		if !b.safeToRetire(cand, arr) {
			return
		}
		b.retireHeadLocked(cand)
	}
}

// drainAllLocked retires everything present in key order — the quiesce
// path behind every stats/clock query, where "no earlier submission is
// coming" is the caller's barrier, not something to prove. Caller holds
// the bus lock.
func (b *Bus) drainAllLocked() {
	for b.queued > 0 {
		if b.frfcfs {
			b.retireWindowLocked(false)
			continue
		}
		cand, _ := b.minHeadLocked()
		b.retireHeadLocked(cand)
	}
}

// safeToRetire reports whether no idle port can still submit a stage with
// a smaller key than (arr, cand): every event-less port's lower bound
// must be beyond arr, or at arr with a larger port index. Caller holds
// the bus lock.
func (b *Bus) safeToRetire(cand *Port, arr uint64) bool {
	for _, q := range b.ports {
		if q == cand || q.evCount > 0 {
			continue
		}
		lb := q.lowerBound()
		if lb < arr || (lb == arr && q.shard < cand.shard) {
			return false
		}
	}
	return true
}

// retireHeadLocked applies one port's head stage at its arrival cycle.
// Caller holds the bus lock.
func (b *Bus) retireHeadLocked(p *Port) {
	b.retireLocked([]*Port{p}, []uint64{p.headArrival()})
}

// retireWindowLocked forms and retires the FR-FCFS merged scheduling
// window: every head within reorderWindowCycles of the minimum head
// arrival, submitted to the controller as one batch with per-request
// arrival floors so the open queue can interleave the member stages. When
// require is true the window only forms if every non-member port is
// provably beyond it (idle ports' lower bounds past the window edge);
// quiesce drains pass false. Returns whether a window retired. Caller
// holds the bus lock.
func (b *Bus) retireWindowLocked(require bool) bool {
	_, m := b.minHeadLocked()
	edge := m + reorderWindowCycles
	if require {
		for _, q := range b.ports {
			if q.evCount == 0 && q.lowerBound() <= edge {
				return false
			}
		}
	}
	members := b.batchPorts[:0]
	arrs := b.batchArr[:0]
	for _, p := range b.ports {
		if p.evCount == 0 {
			continue
		}
		if arr := p.headArrival(); arr <= edge {
			members = append(members, p)
			arrs = append(arrs, arr)
		}
	}
	// Oldest first, ties by port index (the global key order); insertion
	// sort is stable and the batch is at most one head per port.
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && arrs[j] < arrs[j-1]; j-- {
			arrs[j], arrs[j-1] = arrs[j-1], arrs[j]
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	b.batchPorts, b.batchArr = members, arrs
	b.retireLocked(members, arrs)
	return true
}
