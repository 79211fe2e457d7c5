package pathoram

import "repro/internal/membus"

// chainSched is the modeled clock of one engine's recursion chain. In the
// default 5(a) mode it is a single monotone clock (chain): every stage
// of every round arrives after the previous stage completed — the strictly
// serial ordering of Figure 5(a). In overlap mode (Figure 5(b)) it keeps
// two pieces of state instead: dep, the completion of the most recent read
// within the current round (the naming dependency — a level's path address
// comes out of the posmap read before it, so its read may not arrive
// earlier); and ring, the data-ORAM completions of the last depth rounds.
// beginRound resets dep to the oldest windowed completion, so a new
// round's smallest-ORAM stages issue while up to depth-1 earlier rounds
// are still in their data stages — cross-request speculation bounded by
// the window. All state is owned by the replay side of the engine's
// timingLane, which calls beginRound and the levelTimers in record order.
type chainSched struct {
	overlap bool
	chain   uint64   // 5(a): shared serial clock
	dep     uint64   // 5(b): naming dependency within the current round
	ring    []uint64 // 5(b): last depth rounds' data-stage completions
	head    int
}

// beginRound opens a new chain round: the round's first stage may issue as
// soon as the oldest in-window round has completed its data stage.
func (s *chainSched) beginRound() {
	if s.overlap {
		s.dep = s.ring[s.head]
	}
}

func (s *chainSched) noteData(done uint64) {
	s.ring[s.head] = done
	s.head = (s.head + 1) % len(s.ring)
}

// levelTimer chains one chain level's port onto the chain's scheduler:
// within one round, a level's path is named by the position-map access
// that preceded it, so its read must not arrive in modeled time before
// that access completed — even though every level keeps its own port (and
// physical region). Flat shards get the same serialization for free from
// their single port's readyAt; this is the multi-port generalization. In
// overlap mode only reads advance the dependency (a write-back publishes
// no label), so one level's write-back overlaps the next level's read —
// and across rounds the scheduler's window lets consecutive requests
// pipeline. Scheduler and timer are reached only through the engine's
// timingLane; the port methods take the bus lock.
type levelTimer struct {
	port     *membus.Port
	sched    *chainSched
	level    int
	lastRead uint64 // this level's latest read completion (overlap mode)
}

func (t *levelTimer) ReadPath(leaf uint64, skip []bool) {
	if !t.sched.overlap {
		t.port.AdvanceTo(t.sched.chain)
		t.port.ReadPath(leaf, skip)
		if r := t.port.ReadyAt(); r > t.sched.chain {
			t.sched.chain = r
		}
		return
	}
	t.port.AdvanceTo(t.sched.dep)
	t.port.ReadPath(leaf, skip)
	done := t.port.ReadyAt()
	t.lastRead = done
	if done > t.sched.dep {
		t.sched.dep = done
	}
	if t.level == 0 {
		t.sched.noteData(done)
	}
}

func (t *levelTimer) WritePath(leaf uint64, deferred bool) {
	if !t.sched.overlap {
		t.port.AdvanceTo(t.sched.chain)
		t.port.WritePath(leaf, deferred)
		if r := t.port.ReadyAt(); r > t.sched.chain {
			t.sched.chain = r
		}
		return
	}
	// A write-back depends only on its own round's read of the same tree
	// (the path content it rewrites); it publishes nothing the chain below
	// waits for, so it does not advance dep.
	t.port.AdvanceTo(t.lastRead)
	t.port.WritePath(leaf, deferred)
}

// deriveKey expands the master key into an independent per-level key
// (deriveSubKey in the hierarchy domain). Distinct levels therefore never
// share one-time pads even though bucket IDs repeat across trees.
func deriveKey(master []byte, level int) ([]byte, error) {
	return deriveSubKey(master, domainHierarchy, uint64(level))
}
