package pathoram

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// A timingLane replays one engine's modeled time off its request path.
// core.TimedStore is observation-only and Path ORAM's memory traffic is
// content-independent, so the modeled clock is a pure function of the
// ordered stream of (round start | level, leaf, skip mask, read/write,
// deferred) events: the engine's goroutine only records that stream into a
// single-producer/single-consumer ring, and one replay goroutine pops it
// and calls the real timers — the engine's membus ports and its chain's
// RoundStart — in stream order. The replay side owns the ports; the record
// side reads modeled time only after quiesce. DESIGN.md, "Modeled time is
// replayed, not inline".
type timingLane struct {
	timers []core.PathTimer // the real timers, in attach order
	round  func(at uint64)  // membus.Chain.RoundStart

	ring [laneCap]laneEvent
	// tail counts events recorded, head events replayed (stored only once
	// the event's timer call returned), so head == tail means every charge
	// has landed on the bus.
	tail, head atomic.Uint64
	// replaying is set while a replay goroutine owns head. The goroutine
	// lives only while there is work — it exits after laneSpin of idleness
	// and the next record starts a new one — so a dropped engine leaks none.
	replaying atomic.Bool
	// oneP: the replay goroutine was last started under GOMAXPROCS 1 (see
	// laneYield). Recorder-only.
	oneP bool
}

const (
	// laneCap bounds how far modeled time may lag the protocol, and with it
	// the stall a recorder meets on a full ring: about one 16-op batch of a
	// four-level chain (16 round starts, each with 4 reads and 4
	// write-backs, plus PLB write-back rounds).
	laneCap = 256
	// laneSpin is how long an idle replay goroutine polls before exiting: a
	// batch's successor arrives well within it, and restarting the goroutine
	// on an idle CPU costs a futex wake (50-100µs on a VM). 10µs to 1ms
	// measure alike on dram-rec-*, where the replay side is seldom idle.
	laneSpin = 100 * time.Microsecond
	// laneYield is the backlog at which a recorder yields when the two sides
	// share one P. They can only alternate there: the replay goroutine runs
	// only when the recorder yields, so a recorder that yields only on a
	// full ring pays a whole ring of replay inside one batch instead of a
	// little in each (dram-rec-zipf, GOMAXPROCS 1: p50 99-101µs and p99
	// 504-511µs without it, against 190-196 and 295-301 with it).
	laneYield = 16
)

type laneKind uint8

const (
	laneRound laneKind = iota
	laneRead
	laneWrite
)

// laneEvent is one recorded charge. The skip mask is only valid during the
// recording call, so it is copied inline: a path has at most
// treemath.MaxLeafLevel+1 = 31 buckets.
type laneEvent struct {
	leaf     uint64
	kind     laneKind
	timer    uint8
	deferred bool
	nskip    int8 // -1: nil mask
	skip     [32]bool
}

// laneTimer is the record side of one attached timer.
type laneTimer struct {
	lane  *timingLane
	index uint8
}

// attach routes a real timer's charges through the lane and returns the
// recorder to hand to core.NewTimedStore in its place.
func (l *timingLane) attach(t core.PathTimer) core.PathTimer {
	l.timers = append(l.timers, t)
	return laneTimer{l, uint8(len(l.timers) - 1)}
}

func (t laneTimer) ReadPath(leaf uint64, skip []bool) {
	ev := t.lane.slot()
	ev.leaf, ev.kind, ev.timer, ev.nskip = leaf, laneRead, t.index, -1
	if skip != nil {
		ev.nskip = int8(copy(ev.skip[:], skip))
	}
	t.lane.publish()
}

func (t laneTimer) WritePath(leaf uint64, deferred bool) {
	ev := t.lane.slot()
	ev.leaf, ev.kind, ev.timer, ev.deferred = leaf, laneWrite, t.index, deferred
	t.lane.publish()
}

// roundStart records hierarchy.Config.OnRoundStart.
func (l *timingLane) roundStart() {
	l.slot().kind = laneRound
	l.publish()
}

// slot returns the next free ring entry, waiting while the ring is full —
// the replay goroutine is then running or runnable, so yielding to it is
// enough.
func (l *timingLane) slot() *laneEvent {
	t, limit := l.tail.Load(), uint64(laneCap)
	if l.oneP {
		limit = laneYield
	}
	for t-l.head.Load() >= limit {
		runtime.Gosched()
	}
	return &l.ring[t%laneCap]
}

// publish hands the entry slot returned to the replay side, starting a
// replay goroutine if none is running.
func (l *timingLane) publish() {
	l.tail.Add(1)
	if !l.replaying.Load() && l.replaying.CompareAndSwap(false, true) {
		l.oneP = runtime.GOMAXPROCS(0) == 1
		go l.replay()
	}
}

// replay applies recorded events in order until the lane has sat empty for
// laneSpin.
func (l *timingLane) replay() {
	h := l.head.Load()
	for {
		var idleSince time.Time
		for h == l.tail.Load() {
			if idleSince.IsZero() {
				idleSince = time.Now()
				continue
			}
			if time.Since(idleSince) < laneSpin {
				// Poll, but never in the recorder's way: with more runnable
				// goroutines than Ps a bare spin would hold the P it needs.
				runtime.Gosched()
				continue
			}
			// Give up ownership, then look once more: a record that missed
			// the cleared flag is taken back unless its publish already
			// started a successor.
			l.replaying.Store(false)
			if h == l.tail.Load() || !l.replaying.CompareAndSwap(false, true) {
				return
			}
			idleSince = time.Time{}
		}
		ev := &l.ring[h%laneCap]
		switch ev.kind {
		case laneRound:
			l.round(0)
		case laneRead:
			var skip []bool
			if ev.nskip >= 0 {
				skip = ev.skip[:ev.nskip]
			}
			l.timers[ev.timer].ReadPath(ev.leaf, skip)
		case laneWrite:
			l.timers[ev.timer].WritePath(ev.leaf, ev.deferred)
		}
		h++
		l.head.Store(h)
	}
}

// quiesce returns once every recorded event has been replayed: the point
// at which ports and the bus may be read. Call it from the recording
// goroutine (or with the engine otherwise idle). A nil lane — an untimed
// engine — is always quiescent.
func (l *timingLane) quiesce() {
	if l == nil {
		return
	}
	for l.head.Load() != l.tail.Load() {
		runtime.Gosched()
	}
}

// close quiesces and waits for the replay goroutine to let go, so a closed
// engine owns no goroutine. The lane stays usable: a later record restarts
// it.
func (l *timingLane) close() {
	if l == nil {
		return
	}
	l.quiesce()
	for l.replaying.Load() {
		runtime.Gosched()
	}
}
