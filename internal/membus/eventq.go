// Event-ordered arbitration. Charges do not touch the shared bank state
// at submission: each stage is resolved by its chain (chain.go) onto its
// port's FIFO with an arrival floor, and stages retire into the
// dram.System in global (arrival cycle, port index) order.
//
// Determinism argument. A resolved stage's arrival is max(its floor, the
// completion its port's in-flight window reaches back to), and the floor
// reads only completions of its own engine's earlier stages, retired
// before it was resolved, and its round's arrival cycle: a function of
// the engine's stream. A stage retires only when it holds the minimum key
// among present heads AND no port can still receive an earlier-keyed
// stage without a present one retiring first. Only an empty port of an
// open chain can (a closed chain's next stage waits for one already
// present), and its next arrival is bounded below by max(its floor, the
// minimum of its in-flight window, under Figure 5(a) its chain's clock),
// all monotone in its own stream. A round's arrival cycle only raises the
// floors its stages are given, never lowers one, so lowerBound stays a
// bound under any RoundStart(at). So the retirement sequence — and with
// it every bank/bus/row interaction in the shared dram.System — is a
// function of the per-engine stage streams, not of which goroutine won
// the bus lock; deterministic per-shard streams give bit-identical cycle
// totals across runs and GOMAXPROCS settings. Under Serialize the same sequence retires one stage
// at a time, each arrival raised to the completion frontier.
//
// Under the FR-FCFS policy retirement additionally merges contemporaneous
// heads — every head within reorderWindowCycles of the minimum — into one
// scheduling window submitted as a single per-request-arrival batch, so
// the open queue can interleave different ports' stages (a write-back's
// row hits can beat another shard's conflicting activate). The window
// only forms once every bounding port is provably beyond it, which keeps
// the batch composition schedule-independent by the same argument.
//
// Stats queries retire everything submitted; the serving layer makes them
// only once every engine's timing lane is quiescent. The one caveat: if an
// open chain goes quiet while others keep submitting, an overflow valve
// force-drains at maxQueuedStages to bound memory.
package membus

const (
	// reorderWindowCycles is the merged-window span under FR-FCFS: heads
	// within this many cycles of the oldest head schedule as one batch.
	// It approximates how far apart in modeled time two stages can be and
	// still coexist in a real controller's command queue (a path stage
	// spans roughly 1-3k cycles).
	reorderWindowCycles = 4096
	// maxQueuedStages is the overflow valve on the total number of
	// submitted, unretired stages across all ports.
	maxQueuedStages = 1 << 15
)

// stageEvent is one charge: the stage's protocol content plus its arrival
// floor, a lower bound it is submitted with (none for a PathTimer charge)
// until its chain resolves it.
type stageEvent struct {
	leaf     uint64
	skip     []bool // pooled copy; nil when nothing is skipped
	write    bool
	deferred bool
	floor    uint64
}

// push appends one resolved stage to the port's FIFO. Caller holds the
// bus lock.
func (p *Port) push(ev stageEvent) {
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
	p.evq[(p.evHead+p.evCount)%len(p.evq)] = ev
	p.evCount++
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
	p.chain.bus.queued--
}

// headArrival returns the arrival cycle of the port's oldest queued
// stage: its floor, no earlier than the completion of the stage its
// in-flight window reaches back to. Caller holds the bus lock.
func (p *Port) headArrival() uint64 {
	arr := p.evq[p.evHead].floor
	if oldest := p.doneRing[p.ringHead]; oldest > arr {
		arr = oldest
	}
	return arr
}

// lowerBound bounds from below the arrival of the next stage an empty
// port of an open chain may receive: its floor only rises, a future
// stage's in-flight-window constraint is at least the minimum completion
// currently in the ring, and under Figure 5(a) the stage arrives at the
// chain clock. Caller holds the bus lock.
func (p *Port) lowerBound() uint64 {
	lb := max(p.floor, p.chain.clock)
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

// bounding reports whether the port's lower bound constrains retirement:
// it has nothing queued and its chain could resolve a stage onto it
// without first retiring a present one.
func (p *Port) bounding() bool { return p.evCount == 0 && !p.chain.closed }

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
// key order, stopping at the first stage some bounding port could still
// preempt. Caller holds the bus lock.
func (b *Bus) drainReadyLocked() {
	for b.queued > 0 {
		if b.windows {
			if !b.retireWindowLocked(true) {
				return
			}
			continue
		}
		cand, arr := b.minHeadLocked()
		if !b.safeToRetire(cand, arr) {
			return
		}
		b.retireHeadLocked(cand, arr)
	}
}

// drainAllLocked retires everything submitted in key order, pending chain
// stages included — the quiesce path behind every stats/clock query, where
// "no earlier submission is coming" is the caller's barrier, not something
// to prove. Caller holds the bus lock.
func (b *Bus) drainAllLocked() {
	for b.queued > 0 {
		if b.windows {
			b.retireWindowLocked(false)
			continue
		}
		cand, arr := b.minHeadLocked()
		b.retireHeadLocked(cand, arr)
	}
}

// safeToRetire reports whether no bounding port can still receive a stage
// with a smaller key than (arr, cand): its lower bound must be beyond arr,
// or at arr with a larger port index. Caller holds the bus lock.
func (b *Bus) safeToRetire(cand *Port, arr uint64) bool {
	for _, q := range b.ports {
		if !q.bounding() {
			continue
		}
		lb := q.lowerBound()
		if lb < arr || (lb == arr && q.shard < cand.shard) {
			return false
		}
	}
	return true
}

// retireHeadLocked applies one port's head stage at its arrival cycle —
// under Serialize, no earlier than the completion frontier. Caller holds
// the bus lock.
func (b *Bus) retireHeadLocked(p *Port, arr uint64) {
	if b.serialize {
		arr = max(arr, b.frontier)
	}
	b.retireLocked([]*Port{p}, []uint64{arr})
}

// retireWindowLocked forms and retires the FR-FCFS merged scheduling
// window: every head within reorderWindowCycles of the minimum head
// arrival, submitted to the controller as one batch with per-request
// arrival floors so the open queue can interleave the member stages. When
// require is true the window only forms if every bounding port is
// provably beyond it; quiesce drains pass false. Returns whether a window
// retired. Caller holds the bus lock.
func (b *Bus) retireWindowLocked(require bool) bool {
	_, m := b.minHeadLocked()
	edge := m + reorderWindowCycles
	if require {
		for _, q := range b.ports {
			if q.bounding() && q.lowerBound() <= edge {
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
