package membus

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
)

// queueStream is one port's deterministic stage stream: the per-port
// program order the event queue's determinism argument is stated over.
type queueStream struct {
	leaf  uint64
	write bool
	floor uint64
}

func queueStreams(ports, n int, seed int64) [][]queueStream {
	out := make([][]queueStream, ports)
	for s := range out {
		rng := rand.New(rand.NewSource(seed + int64(s)*31))
		var floor uint64
		for i := 0; i < n; i++ {
			floor += uint64(rng.Intn(400))
			out[s] = append(out[s], queueStream{
				leaf:  rng.Uint64(), // reduced mod NumLeaves at play time
				write: rng.Intn(2) == 0,
				floor: floor,
			})
		}
	}
	return out
}

// playStream submits one stage of a port's stream, carrying its floor —
// the think time an engine spends between two stages — the way a charge
// carries none.
func playStream(p *Port, ev queueStream) {
	b := p.chain.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	b.queued++
	p.chain.submit(p, stageEvent{leaf: ev.leaf % p.tree.NumLeaves(), write: ev.write, floor: ev.floor})
	b.drainReadyLocked()
}

// TestQueueOrderIndependentOfSubmissionInterleaving pins the tentpole
// determinism property at the membus level: the shared system's totals
// are a function of the per-port stage streams alone, not of the global
// interleaving in which the ports happened to reach the bus. Two buses
// see identical per-port streams submitted in very different global
// orders (all-of-A-then-B vs alternating vs reversed round-robin); every
// port counter and the system totals must match exactly, under both
// policies.
func TestQueueOrderIndependentOfSubmissionInterleaving(t *testing.T) {
	for _, policy := range []dram.SchedPolicy{dram.SchedInOrder, dram.SchedFRFCFS} {
		const nPorts, nOps = 3, 40
		streams := queueStreams(nPorts, nOps, 17)

		run := func(interleave func(play func(port, i int))) (Stats, []Stats) {
			b := newBus(t, Config{Channels: 2, Sched: dram.SchedConfig{Policy: policy}})
			ports := make([]*Port, nPorts)
			for s := range ports {
				ports[s] = attach(t, b, 4, 256)
			}
			interleave(func(port, i int) { playStream(ports[port], streams[port][i]) })
			return b.Stats(), b.ShardStats()
		}

		refTotal, refShards := run(func(play func(port, i int)) {
			for s := 0; s < nPorts; s++ { // all of port 0, then 1, then 2
				for i := 0; i < nOps; i++ {
					play(s, i)
				}
			}
		})
		interleavings := []func(play func(port, i int)){
			func(play func(port, i int)) { // alternating
				for i := 0; i < nOps; i++ {
					for s := 0; s < nPorts; s++ {
						play(s, i)
					}
				}
			},
			func(play func(port, i int)) { // reversed round-robin
				for i := 0; i < nOps; i++ {
					for s := nPorts - 1; s >= 0; s-- {
						play(s, i)
					}
				}
			},
		}
		for k, il := range interleavings {
			total, shards := run(il)
			if total != refTotal {
				t.Errorf("policy %d interleaving %d: totals diverged\nref %+v\ngot %+v",
					policy, k, refTotal, total)
			}
			for s := range shards {
				if shards[s] != refShards[s] {
					t.Errorf("policy %d interleaving %d: port %d stats diverged\nref %+v\ngot %+v",
						policy, k, s, refShards[s], shards[s])
				}
			}
		}
	}
}

// TestQueueFRFCFSBeatsInOrderAcrossPorts is the cross-port payoff the
// open queue exists for: with two shards charging contemporaneous stages,
// the merged scheduling window interleaves their column accesses — row
// hits first preserves one port's still-open prefix rows instead of
// letting the other port's arrival-order traffic close them — so FR-FCFS
// must finish the same per-port streams in fewer modeled cycles and with
// a higher row-hit rate than in-order event-ordered retirement. The
// trees must be big enough that the two shards' regions share banks
// (leafLevel 8 spans every bank at this geometry).
func TestQueueFRFCFSBeatsInOrderAcrossPorts(t *testing.T) {
	const nPorts, nOps = 2, 200
	streams := queueStreams(nPorts, nOps, 23)
	run := func(policy dram.SchedPolicy) (uint64, float64) {
		b := newBus(t, Config{Channels: 2, Sched: dram.SchedConfig{Policy: policy}})
		ports := make([]*Port, nPorts)
		for s := range ports {
			ports[s] = attach(t, b, 8, 256)
		}
		for i := 0; i < nOps; i++ {
			for s := 0; s < nPorts; s++ {
				playStream(ports[s], streams[s][i])
			}
		}
		return b.Cycles(), b.SystemStats().RowHitRate()
	}
	inCycles, inHit := run(dram.SchedInOrder)
	frCycles, frHit := run(dram.SchedFRFCFS)
	if frCycles >= inCycles {
		t.Errorf("frfcfs frontier %d not below inorder %d", frCycles, inCycles)
	}
	if frHit <= inHit {
		t.Errorf("frfcfs row-hit %.3f not above inorder %.3f", frHit, inHit)
	}
}

// TestQueueOverflowValveBounds pins the memory bound: a port that keeps
// submitting while no one quiesces cannot grow the event queue past
// maxQueuedStages — the valve force-drains instead.
func TestQueueOverflowValveBounds(t *testing.T) {
	b := newBus(t, Config{Channels: 1})
	p := attach(t, b, 2, 64)
	q := attach(t, b, 2, 64)
	_ = q // an idle second port keeps the first port's stages unprovable, so they queue
	for i := 0; i < maxQueuedStages+100; i++ {
		p.ReadPath(uint64(i)%4, nil)
	}
	b.mu.Lock()
	queued, valved := b.queued, b.valveCount
	b.mu.Unlock()
	if queued > maxQueuedStages {
		t.Errorf("queued %d stages, valve should cap at %d", queued, maxQueuedStages)
	}
	if valved == 0 {
		t.Error("valve never fired despite sustained one-sided submission")
	}
	// The force-drain is a quiesce, not a loss: every stage is charged.
	if st := b.Stats(); st.PathReads != maxQueuedStages+100 {
		t.Errorf("charged %d reads, want %d", st.PathReads, maxQueuedStages+100)
	}
}
