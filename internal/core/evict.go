package core

// Evictor is background eviction (Section 3.1.1), implemented once over an
// ordered set of trees: while any stash exceeds its threshold C - Z(L+1),
// issue one dummy access to every tree in access order. A lone ORAM runs it
// as a set of one; a hierarchy over its levels. It also completes the trees'
// deferred write-backs for the idle step and the flush. The owner keeps the
// counters from what Drain, Step and Flush return.
type Evictor struct {
	// Trees lists the set data ORAM first, as a hierarchy's levels do;
	// access order runs from the last tree to the first.
	Trees []*ORAM
	// Enabled issues dummy accesses; without it the Evictor only completes
	// deferred write-backs.
	Enabled bool
	// OnRound, when set, is called at the start of every dummy round.
	OnRound func()
}

// above reports whether any stash exceeds its threshold, or for idle
// eviction half of it, so a burst of later accesses has headroom before any
// pays for inline draining.
func (e *Evictor) above(idle bool) bool {
	for _, o := range e.Trees {
		if n := o.stash.len(); n > o.threshold || idle && n > o.threshold/2 {
			return true
		}
	}
	return false
}

// round issues one dummy access to every tree in access order.
func (e *Evictor) round() error {
	if e.OnRound != nil {
		e.OnRound()
	}
	for i := len(e.Trees) - 1; i >= 0; i-- {
		if err := e.Trees[i].DummyAccess(); err != nil {
			return err
		}
	}
	return nil
}

// Drain issues dummy rounds until no stash exceeds its threshold and
// returns how many completed; DefaultMaxDummyRun rounds without draining is
// ErrLivelock.
func (e *Evictor) Drain() (rounds int, err error) {
	for e.Enabled && e.above(false) {
		if rounds >= DefaultMaxDummyRun {
			return rounds, ErrLivelock
		}
		if err := e.round(); err != nil {
			return rounds, err
		}
		rounds++
	}
	return rounds, nil
}

// Step performs one unit of background work: the oldest pending write-back
// of the first tree in access order that has one (the order its traffic
// arrived in), or — with none pending, allowEviction set and some stash
// above the idle low-water mark — one dummy round. The schedule depends
// only on queue and stash occupancy, functions of the access count and
// never of addresses, so the idle path sequence leaks nothing beyond
// uniformly random leaves (see SECURITY.md).
func (e *Evictor) Step(allowEviction bool) (BackgroundWork, error) {
	for i := len(e.Trees) - 1; i >= 0; i-- {
		if o := e.Trees[i]; o.PendingWriteBacks() > 0 {
			return BgWriteBack, o.completeOldestWriteBack()
		}
	}
	if allowEviction && e.Enabled && e.above(true) {
		return BgEviction, e.round()
	}
	return BgNone, nil
}

// Flush completes every pending write-back, data ORAM first, drains, then
// completes the write-backs the drain's dummy accesses deferred: the trees
// end in a state the synchronous protocol could have reached, no deferred
// I/O and every stash at or below its threshold. It returns the drain's
// rounds.
func (e *Evictor) Flush() (rounds int, err error) {
	if err = e.complete(); err == nil {
		if rounds, err = e.Drain(); err == nil {
			err = e.complete()
		}
	}
	return rounds, err
}

// complete performs every pending write-back, data ORAM first.
func (e *Evictor) complete() error {
	for _, o := range e.Trees {
		for o.PendingWriteBacks() > 0 {
			if err := o.completeOldestWriteBack(); err != nil {
				return err
			}
		}
	}
	return nil
}
