package membus

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
)

// Tests named TestChain* are a required suite of the CI race job.

// TestChainTwoChainsNeverValve drives two engines' chains — three levels
// each, the smallest ORAM touched only every eighth round the way a PLB
// hit elides it — through 10k stages on one bus. Both engines run the same
// rounds, as two shards of one batch do, and their events reach the bus in
// random bursts from either side, as two replay goroutines would. A chain
// whose read is still queued bounds nothing, and an idle level's stale
// floor bounds only an open chain, so neither chain stalls the other: the
// overflow valve never fires and the backlog stays a round or two deep,
// under both policies and both orderings.
func TestChainTwoChainsNeverValve(t *testing.T) {
	const stages = 10_000
	for _, policy := range []dram.SchedPolicy{dram.SchedInOrder, dram.SchedFRFCFS} {
		for _, overlap := range []int{0, 2} {
			b := newBus(t, Config{Channels: 2, Sched: dram.SchedConfig{Policy: policy}})
			chains := make([]*Chain, 2)
			ports := make([][]*Port, 2) // by level, attached smallest first
			for e := range chains {
				chains[e], ports[e] = b.NewChain(overlap), make([]*Port, 3)
				for l := 2; l >= 0; l-- {
					p, err := chains[e].Attach(3+2*l, 256, l == 0)
					if err != nil {
						t.Fatal(err)
					}
					ports[e][l] = p
				}
			}
			rng := rand.New(rand.NewSource(9))
			peak, submitted := 0, 0
			for round := 0; submitted < stages; round++ {
				// Each engine's events for this round, in stream order.
				var streams [2][]func()
				for e := range streams {
					c := chains[e]
					streams[e] = append(streams[e], func() { c.RoundStart(0) })
					for l := 2; l >= 0; l-- {
						if l == 2 && round%8 != 0 {
							continue
						}
						p := ports[e][l]
						leaf := rng.Uint64() % p.tree.NumLeaves()
						streams[e] = append(streams[e],
							func() { p.ReadPath(leaf, nil) },
							func() { p.WritePath(leaf, false) })
						submitted += 2
					}
				}
				for len(streams[0])+len(streams[1]) > 0 {
					e := rng.Intn(2)
					for burst := 1 + rng.Intn(4); burst > 0 && len(streams[e]) > 0; burst-- {
						streams[e][0]()
						streams[e] = streams[e][1:]
						b.mu.Lock()
						peak = max(peak, b.queued)
						b.mu.Unlock()
					}
				}
			}
			b.mu.Lock()
			valved := b.valveCount
			b.mu.Unlock()
			if valved != 0 {
				t.Errorf("policy %d overlap %d: the overflow valve fired %d times", policy, overlap, valved)
			}
			if peak > 24 {
				t.Errorf("policy %d overlap %d: %d stages queued at once; one chain stalled the other", policy, overlap, peak)
			}
			if st := b.Stats(); st.PathReads+st.PathWrites != uint64(submitted) {
				t.Errorf("policy %d overlap %d: charged %d stages of %d", policy, overlap, st.PathReads+st.PathWrites, submitted)
			}
		}
	}
}

// TestChainRoundStartArrival pins RoundStart's arrival cycle: on a Figure
// 5(b) chain a round opened beyond the completion frontier issues nothing
// earlier — its read arrives at that cycle and its write-back after the
// read — while the same round opened at 0 arrives as soon as the chain
// allows, before that cycle.
func TestChainRoundStartArrival(t *testing.T) {
	arrival := func(at uint64) (frontier, read, write uint64) {
		b := newBus(t, Config{Channels: 2, Sched: dram.SchedConfig{Policy: dram.SchedFRFCFS}})
		c := b.NewChain(1)
		p, err := c.Attach(6, 256, true)
		if err != nil {
			t.Fatal(err)
		}
		c.RoundStart(0)
		p.ReadPath(5, nil)
		p.WritePath(5, false)
		before := p.Stats()
		frontier = before.Cycles
		if at > 0 {
			at += frontier
		}
		c.RoundStart(at)
		p.ReadPath(40, nil)
		mid := p.Stats()
		p.WritePath(40, false)
		after := p.Stats()
		read = mid.Cycles - (mid.ReadCycles - before.ReadCycles)
		write = after.Cycles - (after.WriteCycles - mid.WriteCycles)
		if write < mid.Cycles {
			t.Errorf("round at %d: write-back arrived at %d, before its read completed at %d", at, write, mid.Cycles)
		}
		return frontier, read, write
	}
	const gap = 5000
	frontier, read, _ := arrival(gap)
	if read != frontier+gap {
		t.Errorf("round opened at %d: its read arrived at %d", frontier+gap, read)
	}
	if _, read0, _ := arrival(0); read0 >= frontier+gap {
		t.Errorf("round opened at 0 arrived at %d, not before %d", read0, frontier+gap)
	}
}
