package membus

import (
	"testing"

	"repro/internal/dram"
)

// TestQueueInOrderHandChainedReplay is the opt-in regression pin: with
// the default in-order policy, the event-ordered bus must bit-reproduce
// a hand-built reference that replays the same per-port stage streams
// into a bare dram.System in global (arrival, port index) key order,
// with arrival = max(floor at submission, previous stage's completion).
// If this holds, enabling the event queue did not perturb a single
// modeled cycle of the pre-existing in-order model — the FR-FCFS
// scheduler is opt-in.
func TestQueueInOrderHandChainedReplay(t *testing.T) {
	const nPorts, nOps = 3, 50
	streams := queueStreams(nPorts, nOps, 77)

	// The bus under test: interleaved submission, no intermediate quiesce.
	b := newBus(t, Config{Channels: 2, Sched: dram.SchedConfig{Policy: dram.SchedInOrder}})
	ports := make([]*Port, nPorts)
	for s := range ports {
		ports[s] = attach(t, b, 5, 256)
	}
	for i := 0; i < nOps; i++ {
		for s := 0; s < nPorts; s++ {
			playStream(ports[s], streams[s][i])
		}
	}
	got := b.SystemStats()
	gotFrontier := b.Cycles()

	// The reference: a bare system fed whole stages in key order.
	ref, err := dram.New(dram.MicronGeometry(2), dram.DDR3Micron())
	if err != nil {
		t.Fatal(err)
	}
	next := make([]int, nPorts) // next stage index per port
	prevDone := make([]uint64, nPorts)
	var frontier uint64
	// A stage's arrival is max(floor at submission, the port's previous
	// completion) — the depth-1 in-flight ring — so arrivals materialize
	// one retirement at a time; pick the minimum key each round.
	g := uint64(ref.Geometry().AccessBytes)
	var reqs []dram.Request
	for {
		// Pick the pending head with the smallest (arrival, port) key.
		best, bestArr := -1, uint64(0)
		for s := 0; s < nPorts; s++ {
			if next[s] >= nOps {
				continue
			}
			arr := streams[s][next[s]].floor
			if prevDone[s] > arr {
				arr = prevDone[s]
			}
			if best == -1 || arr < bestArr {
				best, bestArr = s, arr
			}
		}
		if best == -1 {
			break
		}
		ev := streams[best][next[best]]
		p := ports[best]
		leaf := ev.leaf % p.tree.NumLeaves()
		reqs = reqs[:0]
		for d := 0; d <= p.tree.LeafLevel(); d++ {
			base := p.mapper.BucketAddr(p.tree.PathBucket(leaf, d))
			for off := uint64(0); off < uint64(p.bucketBytes); off += g {
				reqs = append(reqs, dram.Request{Addr: base + off, Write: ev.write})
			}
		}
		done := ref.AccessAll(bestArr, reqs)
		prevDone[best] = done
		if done > frontier {
			frontier = done
		}
		next[best]++
	}

	if refStats := ref.Stats(); got != refStats {
		t.Fatalf("bus system stats diverged from hand-chained replay:\nbus %+v\nref %+v", got, refStats)
	}
	if gotFrontier != frontier {
		t.Fatalf("bus frontier %d != hand-chained frontier %d", gotFrontier, frontier)
	}
	// Per-port clocks: each port's frontier is its own last completion.
	for s, p := range ports {
		if r := p.Stats().Cycles; r != prevDone[s] {
			t.Fatalf("port %d frontier %d != hand-chained completion %d", s, r, prevDone[s])
		}
	}
}
