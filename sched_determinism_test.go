package pathoram

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// Tests named TestQueue* are a required suite of CI's race run.

// queueShapes are the timed deployments the determinism tests replay, each
// a change to queueDeterminismRun's four flat shards. The one-shard
// recursive chain with a PLB and Figure 5(b) overlap is the deepest timing
// lane there is (round starts in the stream); the two-shard chains and the
// two DRAMSerialize shards put several engines' chain dependencies on one
// bus, where the bus alone must keep retirement in event order.
var queueShapes = []struct {
	name  string
	shape func(*Spec)
}{
	{"flat4", func(*Spec) {}},
	{"rec1-plb-ov2", func(s *Spec) {
		s.Shards, s.PosMap, s.OnChipPosMapMax, s.PLBBytes, s.Overlap = 1, PosMapRecursive, 64, 256, 2
	}},
	{"rec2-plb-ov0", func(s *Spec) {
		s.Shards, s.PosMap, s.OnChipPosMapMax, s.PLBBytes = 2, PosMapRecursive, 64, 256
	}},
	{"rec2-plb-ov2", func(s *Spec) {
		s.Shards, s.PosMap, s.OnChipPosMapMax, s.PLBBytes, s.Overlap = 2, PosMapRecursive, 64, 256, 2
	}},
	{"serialize2", func(s *Spec) { s.Shards, s.DRAMSerialize = 2, true }},
}

// queueDeterminismRun drives one full load against a fresh timed instance
// of the given shape and returns its closing timing snapshot. Batches span
// every shard, so the shards' batch shares charge the shared bus concurrently —
// exactly the regime where lock-acquisition order used to leak into the
// modeled cycle totals. Every shape is synchronous: per-shard request
// streams are then functions of the (seeded) protocol alone, and the
// event-ordered bus must make the totals a function of those streams.
func queueDeterminismRun(t *testing.T, sched MemSched, shape func(*Spec), seed int64) TimingStats {
	t.Helper()
	const blocks, batch, ops = 256, 16, 200
	cfg := dramConfig(4, blocks, PartitionStripe, false, seed)
	cfg.DRAMSched = sched
	shape(&cfg)
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	buf := make([]byte, 16)
	addrs := make([]uint64, batch)
	data := make([][]byte, batch)
	for j := range data {
		data[j] = buf
	}
	for lo := uint64(0); lo < blocks; lo += batch {
		for j := range addrs {
			addrs[j] = lo + uint64(j)
		}
		if err := s.WriteBatch(addrs, data); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for op := 0; op < ops; op += batch {
		for j := range addrs {
			addrs[j] = rng.Uint64() % blocks
		}
		if rng.Intn(2) == 0 {
			if err := s.WriteBatch(addrs, data); err != nil {
				t.Fatal(err)
			}
		} else if _, err := s.ReadBatch(addrs); err != nil {
			t.Fatal(err)
		}
	}
	ts, ok := s.TimingStats()
	if !ok {
		t.Fatal("no timing stats on the dram backend")
	}
	return ts
}

// TestQueueDeterministicAcrossGOMAXPROCS is the reproducibility
// acceptance check: repeated runs of the same seeded load must produce
// byte-identical TimingStats — every modeled cycle total, latency sum and
// DRAM counter — whatever GOMAXPROCS the goroutine scheduler is given (1:
// recorder and replay goroutines alternate on one P; 2 and 4: they run
// side by side), under both scheduling policies, for every queueShapes
// deployment.
func TestQueueDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range queueShapes {
		for _, sched := range []MemSched{MemSchedInOrder, MemSchedFRFCFS} {
			for _, seed := range []int64{3, 11} {
				var ref TimingStats
				have := false
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					for rep := 0; rep < 2; rep++ {
						ts := queueDeterminismRun(t, sched, sh.shape, seed)
						if !have {
							ref, have = ts, true
							continue
						}
						if !reflect.DeepEqual(ts, ref) {
							t.Fatalf("%s sched=%v seed=%d GOMAXPROCS=%d rep=%d: timing diverged\nref %+v\ngot %+v",
								sh.name, sched, seed, procs, rep, ref, ts)
						}
					}
				}
				if ref.Cycles == 0 {
					t.Fatalf("%s sched=%v seed=%d: modeled clock never advanced", sh.name, sched, seed)
				}
			}
		}
	}
}
