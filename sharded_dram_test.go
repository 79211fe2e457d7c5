package pathoram

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testutil"
)

// Tests for the timed (DRAM-backed) serving layer. Everything here is
// named TestDRAM* so CI can run the timed-backend suite with
// `-run 'DRAM|Timed'`.

// dramConfig returns a Spec on the timed backend. An async timed shard
// has no idle pump: its write buffer drains when full, at Flush and at
// snapshots, and no idle-time dummy access ever draws a leaf, so a
// single-client replay is fully deterministic, which is what lets the
// equivalence test demand byte-identical trees (write-back completions
// never change the post-Flush state; TestStagedBitIdenticalToSync pins
// that).
func dramConfig(shards int, blocks uint64, part Partition, async bool, seed int64) Spec {
	return Spec{
		Shards:    shards,
		Partition: part,
		Blocks:    blocks, BlockSize: 16,
		Encryption:    EncryptNone,
		Backend:       BackendDRAM,
		DRAMChannels:  2,
		AsyncEviction: async,
		Rand:          rand.New(rand.NewSource(seed)),
	}
}

// memTree reaches through a shard's store wrappers to the underlying
// MemStore (EncryptNone configs only).
func memTree(t *testing.T, o *ORAM) *core.MemStore {
	t.Helper()
	return memTreeOf(t, o.inner.Level(0).BucketStore())
}

func memTreeOf(t *testing.T, store core.PathStore) *core.MemStore {
	t.Helper()
	if ts, ok := store.(*core.TimedStore); ok {
		store = ts.Inner()
	}
	ms, ok := store.(*core.MemStore)
	if !ok {
		t.Fatalf("shard store is %T, want *core.MemStore", store)
	}
	return ms
}

// shardORAM unwraps shard i's engine as a flat *ORAM (flat configs only).
func shardORAM(t *testing.T, s *Sharded, i int) *ORAM {
	t.Helper()
	if n := s.engines[i].NumORAMs(); n != 1 {
		t.Fatalf("shard %d engine is a chain of %d ORAMs, want a flat ORAM", i, n)
	}
	return s.engines[i]
}

// treeSnapshot serializes a MemStore's full contents (level, position,
// address, leaf, payload of every real block, in scan order).
func treeSnapshot(ms *core.MemStore) []string {
	var out []string
	ms.ForEachBlock(func(slot core.Slot, level int, pos uint64) {
		out = append(out, fmt.Sprintf("%d/%d:%d@%d=%x", level, pos, slot.Addr, slot.Leaf, slot.Data))
	})
	return out
}

// TestDRAMEquivalenceReplay is the timed-backend acceptance test: a trace
// replayed against a MemStore-backed and a DRAM-backed sharded ORAM (same
// seeds) must read identically at every step, touch the exact same leaves
// in the exact same order on every shard (timing never perturbs leaf
// choice), and — after Flush — leave byte-identical trees, across all
// three partitions in both sync and async mode.
func TestDRAMEquivalenceReplay(t *testing.T) {
	const blocks = 300
	const ops = 1500
	const shards = 3
	for _, part := range []Partition{PartitionStripe, PartitionRange, PartitionRandom} {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/async=%v", partName(part), async), func(t *testing.T) {
				leafLog := func() ([][]uint64, func(int, int, uint64)) {
					logs := make([][]uint64, shards)
					return logs, func(sh, _ int, leaf uint64) { logs[sh] = append(logs[sh], leaf) }
				}
				memLeaves, memHook := leafLog()
				memCfg := dramConfig(shards, blocks, part, async, 99)
				memCfg.Backend, memCfg.DRAMChannels = BackendMem, 0
				memCfg.OnPathAccess = memHook
				memS, err := NewSharded(memCfg)
				if err != nil {
					t.Fatal(err)
				}
				defer memS.Close()

				dramLeaves, dramHook := leafLog()
				dramCfg := dramConfig(shards, blocks, part, async, 99)
				dramCfg.OnPathAccess = dramHook
				dramS, err := NewSharded(dramCfg)
				if err != nil {
					t.Fatal(err)
				}
				defer dramS.Close()

				shadow := map[uint64][]byte{}
				expect := func(addr uint64) []byte {
					if d, ok := shadow[addr]; ok {
						return d
					}
					return make([]byte, 16)
				}
				rng := rand.New(rand.NewSource(123))
				for i := 0; i < ops; i++ {
					addr := rng.Uint64() % blocks
					if rng.Intn(2) == 0 {
						d := make([]byte, 16)
						rng.Read(d)
						if err := memS.Write(addr, d); err != nil {
							t.Fatal(err)
						}
						if err := dramS.Write(addr, d); err != nil {
							t.Fatal(err)
						}
						shadow[addr] = d
					} else {
						want := expect(addr)
						gotMem, err := memS.Read(addr)
						if err != nil {
							t.Fatal(err)
						}
						gotDram, err := dramS.Read(addr)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(gotMem, want) || !bytes.Equal(gotDram, want) {
							t.Fatalf("op %d: read(%d) mem=%x dram=%x want %x", i, addr, gotMem, gotDram, want)
						}
					}
				}
				if err := memS.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := dramS.Flush(); err != nil {
					t.Fatal(err)
				}
				// Trees must be byte-identical, shard by shard.
				for i := 0; i < shards; i++ {
					mt := treeSnapshot(memTree(t, shardORAM(t, memS, i)))
					dt := treeSnapshot(memTree(t, shardORAM(t, dramS, i)))
					if len(mt) != len(dt) {
						t.Fatalf("shard %d: block counts diverge (mem %d, dram %d)", i, len(mt), len(dt))
					}
					for j := range mt {
						if mt[j] != dt[j] {
							t.Fatalf("shard %d: trees diverge at block %d: mem %q dram %q", i, j, mt[j], dt[j])
						}
					}
				}
				// Identical leaf sequences: the strongest form of "timing
				// never perturbs leaf choice".
				for i := 0; i < shards; i++ {
					if len(memLeaves[i]) != len(dramLeaves[i]) {
						t.Fatalf("shard %d: %d mem accesses vs %d dram accesses",
							i, len(memLeaves[i]), len(dramLeaves[i]))
					}
					for j := range memLeaves[i] {
						if memLeaves[i][j] != dramLeaves[i][j] {
							t.Fatalf("shard %d: leaf sequences diverge at access %d: mem %d, dram %d",
								i, j, memLeaves[i][j], dramLeaves[i][j])
						}
					}
				}
				// The timed run really went through the model.
				ts, ok := dramS.TimingStats()
				if !ok {
					t.Fatal("DRAM backend reported no timing stats")
				}
				if ts.PathReads == 0 || ts.PathWrites == 0 || ts.DRAM.Reads == 0 {
					t.Fatalf("timing stats flat: %+v", ts)
				}
				if async && ts.DeferredWrites == 0 {
					t.Error("async timed run charged no deferred write-backs")
				}
				if _, ok := memS.TimingStats(); ok {
					t.Error("mem backend claimed timing stats")
				}
			})
		}
	}
}

// TestDRAMTimedLeafUniform is the chi-square half of "timing never
// perturbs leaf choice": under the timed backend the per-shard leaf
// histograms must stay uniform, for adversarial workloads included.
func TestDRAMTimedLeafUniform(t *testing.T) {
	const shards = 2
	const blocks = 512
	const leafLevel = 6
	const accesses = 6000
	for name, w := range map[string]func(i int) uint64{
		"hammer": func(i int) uint64 { return 11 },
		"scan":   func(i int) uint64 { return uint64(i) % blocks },
	} {
		t.Run(name, func(t *testing.T) {
			hists := make([][]uint64, shards)
			for i := range hists {
				hists[i] = make([]uint64, 1<<leafLevel)
			}
			s, err := NewSharded(Spec{
				Shards: shards,
				Blocks: blocks, LeafLevel: leafLevel, Z: 4,
				StashCapacity: 150,
				Backend:       BackendDRAM,
				Rand:          rand.New(rand.NewSource(4242)),
				OnPathAccess:  func(sh, _ int, leaf uint64) { hists[sh][leaf]++ },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < accesses; i++ {
				if err := s.Write(w(i), nil); err != nil {
					t.Fatal(err)
				}
			}
			for sh, counts := range hists {
				var total uint64
				for _, c := range counts {
					total += c
				}
				if total < 500 {
					continue
				}
				if x2 := testutil.ChiSquare(counts); x2 > testutil.UniformThreshold(len(counts)) {
					t.Errorf("shard %d: timed leaf distribution not uniform under %q: chi2=%.1f (%d samples)",
						sh, name, x2, total)
				}
			}
		})
	}
}

// TestDRAMInterleaveBeatsSerialized is the end-to-end intra-access-overlap
// acceptance result: the same workload on ≥2 shards must finish in fewer
// modeled cycles when the shared memory scheduler interleaves different
// shards' stage-2 reads and stage-5 write-backs than when every stage is
// serialized at the global frontier.
func TestDRAMInterleaveBeatsSerialized(t *testing.T) {
	run := func(serialize bool) uint64 {
		cfg := dramConfig(2, 256, PartitionStripe, false, 7)
		cfg.DRAMSerialize = serialize
		s, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		buf := make([]byte, 16)
		for i := 0; i < 600; i++ {
			if err := s.Write(uint64(i)%256, buf); err != nil {
				t.Fatal(err)
			}
		}
		ts, ok := s.TimingStats()
		if !ok {
			t.Fatal("no timing stats")
		}
		return ts.Cycles
	}
	overlapped, serialized := run(false), run(true)
	if overlapped >= serialized {
		t.Errorf("interleaved serving took %d modeled cycles, serialized baseline %d — no overlap win",
			overlapped, serialized)
	}
}

// TestDRAMConcurrentClients hammers a DRAM-backed async sharded ORAM from
// many goroutines: the shared bus must stay race-free (the -race CI shard
// runs this) and read-your-writes must hold through the timed layer.
func TestDRAMConcurrentClients(t *testing.T) {
	const shards = 4
	const blocks = 512
	const clients = 8
	const opsPer = 60
	s, err := NewSharded(dramConfig(shards, blocks, PartitionStripe, true, 31))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := uint64(c) * (blocks / clients)
			buf := make([]byte, 16)
			for i := 0; i < opsPer; i++ {
				addr := base + uint64(i)%(blocks/clients)
				buf[0] = byte(addr)
				if err := s.Write(addr, buf); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				got, err := s.Read(addr)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if got[0] != byte(addr) {
					t.Errorf("client %d: read-your-writes violated at %d", c, addr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ts, ok := s.TimingStats()
	if !ok || ts.PathReads == 0 {
		t.Fatalf("timing stats flat after concurrent load: %+v", ts)
	}
	// Aggregation invariant end-to-end: the merged per-shard view must
	// reproduce the shared memory system's own totals.
	if sys := s.bus.SystemStats(); ts.DRAM != sys {
		t.Errorf("merged shard timing %+v != bus system stats %+v", ts.DRAM, sys)
	}
	if hr := ts.RowHitRate(); hr < 0 || hr > 1 {
		t.Errorf("row hit rate %v out of range", hr)
	}
}

// TestDRAMShardedTimingStatsAfterFlush: under AsyncEviction a Sharded
// timing snapshot completes nothing — before a Flush it charges no
// write-back and leaves every one owed — and after the Flush it charges
// every write-back the traffic owed (one per path read), and a second
// Flush adds nothing; an untimed Sharded reports no timing at all.
func TestDRAMShardedTimingStatsAfterFlush(t *testing.T) {
	cfg := dramConfig(2, 256, PartitionStripe, true, 17)
	cfg.MaxDeferredWriteBacks = 64
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addrs := make([]uint64, 128)
	data := make([][]byte, len(addrs))
	for i := range addrs {
		addrs[i], data[i] = uint64(i), make([]byte, 16)
	}
	if err := s.WriteBatch(addrs, data); err != nil {
		t.Fatal(err)
	}
	early, ok := s.TimingStats()
	if !ok {
		t.Fatal("DRAM backend reported no timing stats")
	}
	if early.PathReads == 0 || early.PathWrites != 0 {
		t.Errorf("snapshot before Flush charged %d write-backs for %d path reads", early.PathWrites, early.PathReads)
	}
	if n := s.PendingWriteBacks(); n != len(addrs) {
		t.Errorf("%d write-backs pending after the snapshot, want %d", n, len(addrs))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	ts, _ := s.TimingStats()
	if ts.PathWrites != ts.PathReads || ts.PathReads != early.PathReads {
		t.Errorf("after Flush: %d write-backs for %d path reads (%d before)", ts.PathWrites, ts.PathReads, early.PathReads)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if again, _ := s.TimingStats(); again != ts {
		t.Errorf("a second Flush charged more:\n%+v\nthen\n%+v", ts, again)
	}

	memCfg := dramConfig(2, 256, PartitionStripe, true, 17)
	memCfg.Backend, memCfg.DRAMChannels = BackendMem, 0
	memS, err := NewSharded(memCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer memS.Close()
	if _, ok := memS.TimingStats(); ok {
		t.Error("mem backend claimed timing stats")
	}
}

// TestDRAMAsyncTimingIsSeeded: a timed async pool has no idle pump, so
// however long it sits idle between requests no write-back completes
// behind its back — its write buffers drain when full, at Flush and at
// snapshots, in stream order — and its modeled time is a function of the
// seed.
func TestDRAMAsyncTimingIsSeeded(t *testing.T) {
	run := func() TimingStats {
		s, err := NewSharded(dramConfig(2, 256, PartitionStripe, true, 19))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rng := rand.New(rand.NewSource(20))
		buf := make([]byte, 16)
		for i := 0; i < 200; i++ {
			if err := s.Write(rng.Uint64()%256, buf); err != nil {
				t.Fatal(err)
			}
			if i%20 == 19 {
				time.Sleep(2 * time.Millisecond) // an idle gap a pump would fill
			}
		}
		if n := s.SchedulerStats().IdleWriteBacks; n != 0 {
			t.Errorf("a timed pool completed %d write-backs in idle time", n)
		}
		ts, _ := s.TimingStats()
		return ts
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two runs of one seed modeled different times:\n%+v\n%+v", a, b)
	}
}

// TestDRAMSingleORAMTiming covers the standalone (non-sharded) wiring: a
// DRAM-backed ORAM builds its own private bus, reports timing, and the
// write-buffer mapping charges deferred write-backs on the flush schedule.
func TestDRAMSingleORAMTiming(t *testing.T) {
	o, err := New(Spec{
		Blocks: 128, BlockSize: 16,
		Encryption:            EncryptCounter,
		Backend:               BackendDRAM,
		DRAMChannels:          1,
		AsyncEviction:         true,
		MaxDeferredWriteBacks: 4,
		Rand:                  rand.New(rand.NewSource(8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	for a := uint64(0); a < 64; a++ {
		if err := o.Write(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	ts, ok := o.TimingStats()
	if !ok {
		t.Fatal("no timing stats on DRAM backend")
	}
	if ts.PathReads == 0 {
		t.Fatal("no path reads charged")
	}
	// Queue cap 4: most write-backs were charged via the cap drain, all
	// deferred.
	if ts.PathWrites == 0 || ts.DeferredWrites != ts.PathWrites {
		t.Fatalf("async run charged inline writes: %+v", ts)
	}
	before := ts
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	ts, _ = o.TimingStats()
	if ts.PathWrites <= before.PathWrites {
		t.Error("Flush charged no write-back I/O")
	}
	if o.PendingWriteBacks() != 0 {
		t.Error("write-backs pending after Flush")
	}
	if ts.BytesPerCycle() <= 0 {
		t.Errorf("BytesPerCycle = %v", ts.BytesPerCycle())
	}
	// Mem backend reports none.
	o2, err := New(Spec{Blocks: 64, BlockSize: 16, Encryption: EncryptNone,
		Rand: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o2.TimingStats(); ok {
		t.Error("mem backend claimed timing stats")
	}
}
