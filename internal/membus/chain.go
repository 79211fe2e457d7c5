package membus

// A Chain is the modeled-time dependency state one engine's ports share:
// a level's path is named by the position-map access before it, so its
// stage may not arrive before that access completed. Under Figure 5(a)
// (overlap 0) every stage arrives at the completion of the chain's
// previous stage; a flat engine is such a chain of one port. Under 5(b)
// (overlap k) a read waits for the round's previous read (dep), a round
// start for the data read k rounds back, a write-back for its own level's
// read, and each port keeps two stages in flight; a round also waits for
// its arrival cycle. Every stage also arrives no earlier than its port's
// floor. The bus runs this arithmetic under its lock: a stage is resolved
// (given its floor) once the completions it reads have retired, and until
// then waits on the chain's pending FIFO with the round starts between
// them — under 5(a) behind any unretired stage, under 5(b) behind an
// unretired read and the stages resolved before it. So its arrival is a
// function of its engine's stream alone, whenever the engine's replay
// goroutine reached the bus.
type Chain struct {
	bus     *Bus
	overlap bool
	clock   uint64   // 5(a): the latest completion
	dep     uint64   // 5(b): the current round's naming dependency
	ring    []uint64 // 5(b): data-read completions of the last k rounds
	head    int
	// closed: a resolved read (5(a): stage) is unretired, so new stages
	// and round starts queue on pending[next:] until the inFlight resolved
	// stages have all retired.
	closed   bool
	inFlight int
	pending  []pendingStage
	next     int
}

// pendingStage is one stage, or with a nil port one round start, waiting
// for its chain to resolve it.
type pendingStage struct {
	port *Port
	ev   stageEvent
}

// NewChain returns an empty chain on the bus for one engine's trees:
// overlap 0 orders them as Figure 5(a), k > 0 as Figure 5(b) with a
// window of k rounds.
func (b *Bus) NewChain(overlap int) *Chain {
	c := &Chain{bus: b, overlap: overlap > 0}
	if c.overlap {
		c.ring = make([]uint64, overlap)
	}
	return c
}

// RoundStart opens a chain round (hierarchy.Config.OnRoundStart) that
// arrives at modeled cycle at: under 5(b) the round's first read waits for
// max(the data read k rounds back, at); 0 is "as soon as the chain
// allows", the serving layer's rounds. A no-op under 5(a).
func (c *Chain) RoundStart(at uint64) {
	if !c.overlap {
		return
	}
	c.bus.mu.Lock()
	defer c.bus.mu.Unlock()
	c.submit(nil, stageEvent{floor: at})
}

// submit resolves a stage (or round start) now, or queues it behind the
// unretired stage it depends on. Caller holds the bus lock.
func (c *Chain) submit(p *Port, ev stageEvent) {
	switch {
	case c.closed:
		c.pending = append(c.pending, pendingStage{p, ev})
	case p == nil:
		c.dep = max(c.ring[c.head], ev.floor)
	default:
		c.resolve(p, ev)
	}
}

// resolve raises a stage's arrival floor to its chain dependency and its
// port's high-water mark and hands it to the port's FIFO. Caller holds the
// bus lock.
func (c *Chain) resolve(p *Port, ev stageEvent) {
	floor := c.clock
	if c.overlap {
		floor = c.dep
		if ev.write {
			floor = p.lastRead
		}
	}
	p.floor = max(p.floor, floor, ev.floor)
	ev.floor = p.floor
	p.push(ev)
	c.inFlight++
	c.closed = !c.overlap || !ev.write
}

// retired publishes a retired stage of port p through the port's
// completion frontier, p.stats.Cycles, which already counts it. Caller
// holds the bus lock.
func (c *Chain) retired(p *Port, write bool) {
	c.inFlight--
	done := p.stats.Cycles
	switch {
	case !c.overlap:
		c.clock = max(c.clock, done)
	case !write:
		p.lastRead = done
		c.dep = max(c.dep, done)
		if p.data {
			c.ring[c.head] = done
			c.head = (c.head + 1) % len(c.ring)
		}
	}
}

// release resolves pending stages in order once every resolved stage has
// retired, up to the next one that closes the chain again. Caller holds
// the bus lock.
func (c *Chain) release() {
	if !c.closed || c.inFlight > 0 {
		return
	}
	c.closed = false
	for ; !c.closed && c.next < len(c.pending); c.next++ {
		it := c.pending[c.next]
		c.pending[c.next] = pendingStage{}
		c.submit(it.port, it.ev)
	}
	if c.next == len(c.pending) {
		c.pending, c.next = c.pending[:0], 0
	}
}
