package membus

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
)

// Tests for the chain orderings behind the Figure 5(b) overlap mode. Named
// TestOverlap* for the CI `-run 'PLB|Overlap'` shard.

// TestOverlapPortClockMonotonic pins the clock contract a Figure 5(a)
// chain rests on: every stage arrives exactly when the chain's previous
// stage completed, whichever level it ran on, so the chain's completion
// frontier only moves forward and equals the sum of its stage latencies.
func TestOverlapPortClockMonotonic(t *testing.T) {
	b := newBus(t, Config{Channels: 2})
	c := b.NewChain(0)
	var ports []*Port
	for _, ll := range []int{6, 4, 3} {
		p, err := c.Attach(ll, 256, len(ports) == 0)
		if err != nil {
			t.Fatal(err)
		}
		ports = append(ports, p)
	}
	rng := rand.New(rand.NewSource(1))
	var prev uint64
	for i := 0; i < 100; i++ {
		p := ports[rng.Intn(len(ports))]
		leaf := rng.Uint64() % p.tree.NumLeaves()
		if i%2 == 0 {
			p.ReadPath(leaf, nil)
		} else {
			p.WritePath(leaf, false)
		}
		now := b.Cycles()
		if now <= prev {
			t.Fatalf("stage %d did not advance the chain clock: %d -> %d", i, prev, now)
		}
		prev = now
	}
	if st := b.Stats(); st.ReadCycles+st.WriteCycles != st.Cycles {
		t.Errorf("serial chain: stage latencies sum to %d, frontier %d", st.ReadCycles+st.WriteCycles, st.Cycles)
	}
}

// TestOverlapPortBoundedInFlight pins the in-flight window: a one-port
// Figure 5(a) chain is exactly the flat port AttachShard builds, and a
// Figure 5(b) chain keeps two stages in flight per port, so the same
// traffic completes strictly earlier — a round's read no longer waits for
// the previous round's write-back.
func TestOverlapPortBoundedInFlight(t *testing.T) {
	replay := func(attach func(*Bus) (*Port, *Chain)) Stats {
		b := newBus(t, Config{Channels: 2})
		p, c := attach(b)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 200; i++ {
			leaf := rng.Uint64() % p.tree.NumLeaves()
			if c != nil {
				c.RoundStart(0)
			}
			p.ReadPath(leaf, nil)
			p.WritePath(leaf, false)
		}
		return p.Stats()
	}
	chainOf := func(overlap int) func(*Bus) (*Port, *Chain) {
		return func(b *Bus) (*Port, *Chain) {
			c := b.NewChain(overlap)
			p, err := c.Attach(6, 512, true)
			if err != nil {
				t.Fatal(err)
			}
			return p, c
		}
	}
	flat := replay(func(b *Bus) (*Port, *Chain) {
		p, err := b.AttachShard(6, 512)
		if err != nil {
			t.Fatal(err)
		}
		return p, nil
	})
	serial := replay(chainOf(0))
	if flat != serial {
		t.Errorf("a one-port 5(a) chain diverges from the flat port:\n flat  %+v\n chain %+v", flat, serial)
	}
	piped := replay(chainOf(1))
	if piped.Cycles >= serial.Cycles {
		t.Errorf("5(b) frontier %d not below serial %d; the window never engaged", piped.Cycles, serial.Cycles)
	}
	// The window reorders nothing: the same requests hit DRAM either way.
	if piped.DRAM.Reads != serial.DRAM.Reads || piped.DRAM.Writes != serial.DRAM.Writes {
		t.Errorf("5(b) moved different traffic: %+v vs %+v", piped.DRAM, serial.DRAM)
	}
}

// handPort is one level's state in the hand-chained reference below.
type handPort struct {
	floor, readyAt, lastRead uint64
	done                     []uint64 // last completions, oldest at head
	head                     int
}

// TestOverlapHandChainedReplay replays one recursion chain's traffic
// through a Chain twice — under the serialized Figure 5(a) clock and under
// the Figure 5(b) dependency rule (a level's read waits only for the round's
// previous read, its write-back for its own read; a new round starts behind
// the data read `depth` rounds back; two stages in flight per level) — and
// requires each to bit-reproduce a hand-chained reference: the same
// arithmetic worked out here and applied to a bare dram.System, one stage
// at a time in (arrival, level) key order, with a read closing the group
// of stages that retire together. The overlap frontier must also be
// strictly earlier.
func TestOverlapHandChainedReplay(t *testing.T) {
	const levels = 3
	const rounds = 50
	leafLevels := []int{6, 4, 3} // data ORAM largest, posmap ORAMs shrink

	// Pre-draw every round's leaves so both replays move identical traffic.
	rng := rand.New(rand.NewSource(3))
	leaves := make([][]uint64, rounds)
	for r := range leaves {
		leaves[r] = make([]uint64, levels)
		for l, ll := range leafLevels {
			leaves[r][l] = rng.Uint64() % (1 << uint(ll))
		}
	}

	// chained drives the stream through a Chain; the ports attach
	// smallest ORAM first, as an engine does, so port index = levels-1-l.
	chained := func(overlap int) (dram.Stats, uint64) {
		b := newBus(t, Config{Channels: 2})
		c := b.NewChain(overlap)
		ports := make([]*Port, levels)
		for l := levels - 1; l >= 0; l-- {
			p, err := c.Attach(leafLevels[l], 256, l == 0)
			if err != nil {
				t.Fatal(err)
			}
			ports[l] = p
		}
		for r := 0; r < rounds; r++ {
			c.RoundStart(0)
			for l := levels - 1; l >= 0; l-- {
				ports[l].ReadPath(leaves[r][l], nil)
				ports[l].WritePath(leaves[r][l], false)
			}
		}
		return b.SystemStats(), b.Cycles()
	}

	// reference works the same stream out by hand.
	reference := func(overlap int) (dram.Stats, uint64) {
		sys, err := dram.New(dram.MicronGeometry(2), dram.DDR3Micron())
		if err != nil {
			t.Fatal(err)
		}
		b := newBus(t, Config{Channels: 2}) // for the address map only
		maps := make([]*Port, levels)
		for l := levels - 1; l >= 0; l-- {
			maps[l] = attach(t, b, leafLevels[l], 256)
		}
		depth := 1
		if overlap > 0 {
			depth = 2
		}
		hp := make([]handPort, levels)
		for l := range hp {
			hp[l].done = make([]uint64, depth)
		}
		var clock, dep, frontier uint64
		ring, head := make([]uint64, max(overlap, 1)), 0
		type stage struct {
			l     int
			write bool
			leaf  uint64
			floor uint64
		}
		var group []stage
		g := uint64(sys.Geometry().AccessBytes)
		retire := func(s stage) {
			h, p := &hp[s.l], maps[s.l]
			arr := max(s.floor, h.done[h.head])
			var reqs []dram.Request
			for d := 0; d <= p.tree.LeafLevel(); d++ {
				base := p.mapper.BucketAddr(p.tree.PathBucket(s.leaf, d))
				for off := uint64(0); off < uint64(p.bucketBytes); off += g {
					reqs = append(reqs, dram.Request{Addr: base + off, Write: s.write})
				}
			}
			done := max(arr, sys.AccessAll(arr, reqs))
			h.done[h.head] = done
			h.head = (h.head + 1) % depth
			h.readyAt = max(h.readyAt, done)
			frontier = max(frontier, done)
			switch {
			case overlap == 0:
				clock = max(clock, h.readyAt)
			case !s.write:
				h.lastRead = h.readyAt
				dep = max(dep, h.readyAt)
				if s.l == 0 {
					ring[head] = h.readyAt
					head = (head + 1) % overlap
				}
			}
		}
		submit := func(l int, write bool, leaf uint64) {
			h := &hp[l]
			floor := clock
			if overlap > 0 {
				floor = dep
				if write {
					floor = h.lastRead
				}
			}
			h.floor = max(h.floor, floor)
			h.readyAt = max(h.readyAt, h.floor)
			group = append(group, stage{l, write, leaf, h.floor})
			if overlap > 0 && write {
				return // a write-back closes no group
			}
			// The group retires in (arrival, port index) order; it holds at
			// most one stage per level here, so arrivals are known up front.
			key := func(s stage) (uint64, int) {
				return max(s.floor, hp[s.l].done[hp[s.l].head]), levels - 1 - s.l
			}
			for len(group) > 0 {
				best := 0
				for i := range group {
					ai, pi := key(group[i])
					ab, pb := key(group[best])
					if ai < ab || (ai == ab && pi < pb) {
						best = i
					}
				}
				retire(group[best])
				group = append(group[:best], group[best+1:]...)
			}
		}
		for r := 0; r < rounds; r++ {
			if overlap > 0 {
				dep = ring[head]
			}
			for l := levels - 1; l >= 0; l-- {
				submit(l, false, leaves[r][l])
				submit(l, true, leaves[r][l])
			}
		}
		for _, s := range group { // the last round's trailing write-back
			retire(s)
		}
		return sys.Stats(), frontier
	}

	var frontiers [2]uint64
	for i, overlap := range []int{0, 4} {
		got, gotFrontier := chained(overlap)
		want, wantFrontier := reference(overlap)
		if got != want || gotFrontier != wantFrontier {
			t.Errorf("overlap %d: chain diverged from the hand-chained reference:\nchain %+v (frontier %d)\nhand  %+v (frontier %d)",
				overlap, got, gotFrontier, want, wantFrontier)
		}
		frontiers[i] = gotFrontier
	}
	if frontiers[1] >= frontiers[0] {
		t.Errorf("overlap frontier %d not earlier than serial %d", frontiers[1], frontiers[0])
	}
}
