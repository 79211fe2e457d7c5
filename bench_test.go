package pathoram

// Primitive-operation benchmarks for the library itself. The benchmarks
// of the paper's tables and figures live in internal/exp (which imports
// this package through internal/explore, so they cannot sit here).

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/membus"
	"repro/internal/shard"
)

// ---------- primitive benchmarks ----------

func benchORAM(b *testing.B, cfg Config) {
	b.Helper()
	cfg.Rand = rand.New(rand.NewSource(1))
	o, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := o.Close(); err != nil {
			b.Error(err)
		}
	})
	buf := make([]byte, cfg.BlockSize)
	rng := rand.New(rand.NewSource(2))
	// Pre-fill so benches measure steady state.
	for a := uint64(0); a < cfg.Blocks; a++ {
		if err := o.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	// ReadInto with a reused destination measures the serving path
	// itself: steady state must be allocation-free (the gate in
	// cmd/oram-benchjson holds these benches to an allocs/op budget).
	dst := make([]byte, cfg.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.ReadInto(rng.Uint64()%cfg.Blocks, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(o.Stats().DummyAccesses)/float64(b.N), "dummies/op")
}

func BenchmarkAccessMetadataOnly(b *testing.B) {
	benchORAM(b, Spec{Blocks: 1 << 14, BlockSize: 0, Encryption: EncryptNone})
}

func BenchmarkAccessPlaintext(b *testing.B) {
	benchORAM(b, Spec{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptNone})
}

func BenchmarkAccessCounterEncrypted(b *testing.B) {
	benchORAM(b, Spec{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptCounter})
}

// BenchmarkAccessCounterEncryptedCold is the same access at one flat-enc
// shard's geometry: 32,768 64-byte blocks in a 15-level Z=3 tree, 7.7 MB
// of ciphertext (8.4 MB of 256-byte records). The tree above is 1.8 MB
// and stays in a 4 MB L2; this one does not, so a random path's
// ciphertext lines and counter entries are cold misses, as in the served
// workload.
func BenchmarkAccessCounterEncryptedCold(b *testing.B) {
	benchORAM(b, Spec{Blocks: 1 << 15, BlockSize: 64, Encryption: EncryptCounter})
}

func BenchmarkAccessStrawmanEncrypted(b *testing.B) {
	benchORAM(b, Spec{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptStrawman})
}

func BenchmarkAccessCounterWithIntegrity(b *testing.B) {
	benchORAM(b, Spec{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptCounter, Integrity: true})
}

// ---------- persistent-backend benchmarks ----------
//
// Same geometry as BenchmarkAccessCounterEncrypted, so the numbers read
// as pure storage overhead: every ReadInto rewrites its path, so the
// mmap'd tree file sees Z(L+1) record writes per op and the WAL variant
// additionally appends one log frame per op. scripts/check_gates.sh
// holds the overhead to relative bounds against the in-memory baseline.

func BenchmarkFileBackendAccess(b *testing.B) {
	benchORAM(b, Spec{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptCounter,
		Backend: BackendFile, Dir: b.TempDir()})
}

func BenchmarkFileBackendWAL(b *testing.B) {
	benchORAM(b, Spec{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptCounter,
		Backend: BackendFile, Dir: b.TempDir(), WAL: true, WALDepth: 64})
}

// BenchmarkFileBackendWALEpochFlush measures the serving path when the
// epoch barrier is paid inline: every 32 accesses, Flush checkpoints the
// WAL (log fsync, apply, msync, truncate) — the durability cadence a
// sync-minded deployment would run.
func BenchmarkFileBackendWALEpochFlush(b *testing.B) {
	cfg := Spec{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptCounter,
		Backend: BackendFile, Dir: b.TempDir(), WAL: true,
		Rand: rand.New(rand.NewSource(1))}
	o, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := o.Close(); err != nil {
			b.Error(err)
		}
	})
	buf := make([]byte, cfg.BlockSize)
	for a := uint64(0); a < cfg.Blocks; a++ {
		if err := o.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]byte, cfg.BlockSize)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.ReadInto(rng.Uint64()%cfg.Blocks, dst); err != nil {
			b.Fatal(err)
		}
		if i%32 == 31 {
			if err := o.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAccessSuperBlock2(b *testing.B) {
	benchORAM(b, Spec{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptNone, SuperBlockSize: 2, Z: 4})
}

// BenchmarkAccessConstantTimeStash prices the fixed-length masked stash
// scans against the default early-exit scans (BenchmarkAccessPlaintext /
// BenchmarkAccessCounterEncrypted are the baselines): every scan touches
// the full scan window regardless of where — or whether — the block sits.
func BenchmarkAccessConstantTimeStash(b *testing.B) {
	b.Run("plaintext", func(b *testing.B) {
		benchORAM(b, Spec{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptNone, ConstantTimeStash: true})
	})
	b.Run("counter", func(b *testing.B) {
		benchORAM(b, Spec{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptCounter, ConstantTimeStash: true})
	})
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := New(Spec{
		PosMap: PosMapRecursive,
		Blocks: 1 << 12, BlockSize: 128, PosBlockSize: 32,
		OnChipPosMapMax: 1 << 10, Encryption: EncryptNone,
		Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 128)
	for a := uint64(0); a < 1<<12; a++ {
		if err := h.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Read(rng.Uint64() % (1 << 12)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(h.NumORAMs()), "orams")
}

// BenchmarkAccessRecursivePLBHit measures the PLB hit path: a hot set
// whose labels all fit in the lookaside cache, so after warmup every
// access resolves its leaf in the PLB and touches only the data ORAM.
// The hit path shares the pooled-buffer discipline of the flat hot path,
// so steady state must stay allocation-free (scripts/check_gates.sh
// holds this bench to the same budget as the other Access benches).
func BenchmarkAccessRecursivePLBHit(b *testing.B) {
	h, err := New(Spec{
		PosMap: PosMapRecursive,
		Blocks: 1 << 12, BlockSize: 128, PosBlockSize: 32,
		OnChipPosMapMax: 1 << 10, Encryption: EncryptNone,
		PLBBytes: 1 << 14,
		Rand:     rand.New(rand.NewSource(3)),
	})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 128)
	for a := uint64(0); a < 1<<12; a++ {
		if err := h.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	const hot = 64
	rng := rand.New(rand.NewSource(4))
	dst := make([]byte, 128)
	// Warm the PLB so the measured loop is all hits.
	for a := uint64(0); a < hot; a++ {
		if _, err := h.ReadInto(a, dst); err != nil {
			b.Fatal(err)
		}
	}
	h.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ReadInto(rng.Uint64()%hot, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := h.Stats()
	if lookups := st.PLBHits + st.PLBMisses; lookups > 0 {
		b.ReportMetric(float64(st.PLBHits)/float64(lookups), "plb-hitrate")
	}
	b.ReportMetric(st.MeanChainLength(), "chain-len")
}

// BenchmarkAccessRecursiveDRAM is the timed recursive access from the
// record side: the benchmark goroutine runs the protocol and records its
// charges, the engine's timing lane replays them into the FR-FCFS model
// behind it. ns/op closes with a quiesce, so it prices both halves at the
// pace of the slower; the allocation gate in scripts/check_gates.sh holds
// recording (the ring's inline skip masks) and replay (event rings, window
// scratch) to the budget of the other Access benches.
func BenchmarkAccessRecursiveDRAM(b *testing.B) { benchmarkAccessRecursive(b, true) }

// BenchmarkAccessRecursiveUntimed is BenchmarkAccessRecursiveDRAM's spec
// without the memory model (no Backend, DRAMSched or Overlap): the protocol
// half alone, the pace the timed access would keep if replay were free.
// scripts/check_gates.sh bounds the ratio of the two.
func BenchmarkAccessRecursiveUntimed(b *testing.B) { benchmarkAccessRecursive(b, false) }

func benchmarkAccessRecursive(b *testing.B, timed bool) {
	spec := Spec{
		Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptNone,
		PosMap: PosMapRecursive, PosBlockSize: 32, OnChipPosMapMax: 1 << 10,
		PLBBytes: 1 << 10,
		Rand:     rand.New(rand.NewSource(3)),
	}
	if timed {
		spec.Overlap, spec.Backend, spec.DRAMSched = 2, BackendDRAM, MemSchedFRFCFS
	}
	h, err := New(spec)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	buf := make([]byte, 128)
	for a := uint64(0); a < 1<<12; a++ {
		if err := h.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	pre, _ := h.TimingStats()
	rng := rand.New(rand.NewSource(4))
	dst := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ReadInto(rng.Uint64()%(1<<12), dst); err != nil {
			b.Fatal(err)
		}
	}
	post, _ := h.TimingStats()
	b.StopTimer()
	if timed {
		b.ReportMetric(float64(post.Delta(pre).Cycles)/float64(b.N), "cycles/op")
	}
}

func BenchmarkExclusiveLoadStore(b *testing.B) {
	o, err := New(Spec{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptNone,
		Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 128)
	for a := uint64(0); a < 1<<12; a++ {
		if err := o.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := rng.Uint64() % (1 << 12)
		d, _, _, err := o.Load(a)
		if err != nil {
			b.Fatal(err)
		}
		if err := o.Store(a, d); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- sharded serving-layer benchmarks ----------

// newBenchSharded builds and pre-fills a sharded ORAM over the whole
// logical address space so the benchmarks measure steady state.
func newBenchSharded(b *testing.B, cfg Spec) *Sharded {
	b.Helper()
	s, err := NewSharded(cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, cfg.BlockSize)
	const chunk = 1024
	for lo := uint64(0); lo < cfg.Blocks; lo += chunk {
		hi := lo + chunk
		if hi > cfg.Blocks {
			hi = cfg.Blocks
		}
		addrs := make([]uint64, 0, chunk)
		data := make([][]byte, 0, chunk)
		for a := lo; a < hi; a++ {
			addrs = append(addrs, a)
			data = append(data, buf)
		}
		if err := s.WriteBatch(addrs, data); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkShardedThroughput measures single-op read throughput versus
// shard count under concurrent clients (GOMAXPROCS goroutines via
// RunParallel). ops/s vs shards=1 is the sharding speedup.
func BenchmarkShardedThroughput(b *testing.B) {
	const blocks = 1 << 14
	const blockSize = 64
	for _, shards := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchSharded(b, Spec{
				Shards: shards,
				Blocks: blocks, BlockSize: blockSize, Encryption: EncryptNone,
			})
			defer s.Close()
			var seed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(100 + seed.Add(1)))
				dst := make([]byte, blockSize)
				for pb.Next() {
					if _, err := s.ReadInto(rng.Uint64()%blocks, dst); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkShardedHierarchy measures the unified composition the Open
// constructor enables: sharded ORAMs whose position maps recurse
// obliviously (one Hierarchy per shard). Each op walks a whole chain, so
// absolute throughput sits well below the flat sweep — the shard scaling
// and the per-op chain cost (the H× factor of Section 2.3) are the
// numbers of interest. CI runs it once as the composition smoke test.
func BenchmarkShardedHierarchy(b *testing.B) {
	const blocks = 1 << 13
	const blockSize = 32
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := Open(Spec{
				Blocks: blocks, BlockSize: blockSize, Shards: shards,
				PosMap: PosMapRecursive, PosBlockSize: 32, OnChipPosMapMax: 4 << 10,
				Encryption: EncryptNone,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			levels := c.(*Sharded).NumORAMs()
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(300 + seed.Add(1)))
				for pb.Next() {
					if _, err := c.Read(rng.Uint64() % blocks); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(levels), "levels")
		})
	}
}

// BenchmarkShardedThroughputEncrypted is the same sweep with the
// counter-based encryption on: per-shard AES work parallelizes across
// clients, so sharding gains are larger than in the plaintext sweep.
func BenchmarkShardedThroughputEncrypted(b *testing.B) {
	const blocks = 1 << 13
	const blockSize = 64
	for _, shards := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchSharded(b, Spec{
				Shards: shards,
				Blocks: blocks, BlockSize: blockSize, Encryption: EncryptCounter,
			})
			defer s.Close()
			var seed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(200 + seed.Add(1)))
				dst := make([]byte, blockSize)
				for pb.Next() {
					if _, err := s.ReadInto(rng.Uint64()%blocks, dst); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkShardedDRAM measures the timed serving layer: wall-clock
// throughput of DRAM-backed shards on the shared memory scheduler, with
// the modeled currency attached as metrics — DDR3 cycles per op, row-hit
// rate, and achieved bytes per modeled cycle, all diffed against the
// post-pre-fill snapshot so they describe the measured reads only. CI
// runs it once as the timed-backend smoke test.
func BenchmarkShardedDRAM(b *testing.B) {
	const blocks = 1 << 12
	const blockSize = 64
	for _, shards := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchSharded(b, Spec{
				Shards: shards,
				Blocks: blocks, BlockSize: blockSize,
				Encryption:   EncryptNone,
				Backend:      BackendDRAM,
				DRAMChannels: 2,
			})
			defer s.Close()
			pre, _ := s.TimingStats()
			var seed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(300 + seed.Add(1)))
				dst := make([]byte, blockSize)
				for pb.Next() {
					if _, err := s.ReadInto(rng.Uint64()%blocks, dst); err != nil {
						b.Error(err)
						return
					}
				}
			})
			// The closing snapshot quiesces every shard's timing lane; it
			// runs on the clock so ns/op prices the replay half too.
			post, ok := s.TimingStats()
			b.StopTimer()
			if !ok {
				b.Fatal("no timing stats from DRAM backend")
			}
			d := post.Delta(pre)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(d.Cycles)/float64(b.N), "cycles/op")
			b.ReportMetric(d.RowHitRate(), "row-hit")
			b.ReportMetric(d.BytesPerCycle(), "B/cycle")
		})
	}
}

// benchmarkSched drives a 2-shard timed instance under concurrent
// single-op reads and reports the modeled columns the PR 9 gate compares:
// cycles/op, row-hit rate, and ops per modeled second. Both scheduling
// policies run the identical load; check_gates.sh requires the
// FR-FCFS variant to win on all three. The queued hot path is also in
// the allocation gate — the event queue's rings, skip-mask pool, and
// batch scratch must reach steady state without per-op allocation.
func benchmarkSched(b *testing.B, sched MemSched) {
	const blocks = 1 << 12
	const blockSize = 64
	s := newBenchSharded(b, Spec{
		Shards: 2,
		Blocks: blocks, BlockSize: blockSize,
		Encryption:   EncryptNone,
		Backend:      BackendDRAM,
		DRAMChannels: 2,
		DRAMSched:    sched,
	})
	defer s.Close()
	pre, _ := s.TimingStats()
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(900 + seed.Add(1)))
		dst := make([]byte, blockSize)
		for pb.Next() {
			if _, err := s.ReadInto(rng.Uint64()%blocks, dst); err != nil {
				b.Error(err)
				return
			}
		}
	})
	// On the clock: the snapshot quiesces both shards' timing lanes, so
	// ns/op (and the FR-FCFS < 2x in-order gate) prices the whole simulator,
	// not only its recording half.
	post, ok := s.TimingStats()
	b.StopTimer()
	if !ok {
		b.Fatal("no timing stats from DRAM backend")
	}
	d := post.Delta(pre)
	b.ReportMetric(float64(d.Cycles)/float64(b.N), "cycles/op")
	b.ReportMetric(d.RowHitRate(), "row-hit")
	if d.Cycles > 0 {
		b.ReportMetric(float64(b.N)*membus.CyclesPerSecond/float64(d.Cycles), "ops/modeled-s")
	}
}

func BenchmarkSchedInorder2Shard(b *testing.B) { benchmarkSched(b, MemSchedInOrder) }

func BenchmarkSchedFRFCFS2Shard(b *testing.B) { benchmarkSched(b, MemSchedFRFCFS) }

// BenchmarkShardedBatch measures batched submission from a single client:
// even one caller gets cross-shard parallelism because the batch runs each
// shard's share on a goroutine of its own.
func BenchmarkShardedBatch(b *testing.B) {
	const blocks = 1 << 14
	const blockSize = 64
	const batch = 64
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchSharded(b, Spec{
				Shards: shards,
				Blocks: blocks, BlockSize: blockSize, Encryption: EncryptNone,
			})
			defer s.Close()
			rng := rand.New(rand.NewSource(300))
			addrs := make([]uint64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range addrs {
					addrs[j] = rng.Uint64() % blocks
				}
				if _, err := s.ReadBatch(addrs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// nopEngine answers every request at once, so a pool over it measures
// nothing but the scheduler's own hand-off.
type nopEngine struct{}

func (nopEngine) Read(uint64) ([]byte, error)                      { return nil, nil }
func (nopEngine) ReadInto(uint64, []byte) (bool, error)            { return true, nil }
func (nopEngine) Write(uint64, []byte) error                       { return nil }
func (nopEngine) Update(uint64, func([]byte)) error                { return nil }
func (nopEngine) Load(uint64) ([]byte, bool, []core.Slot, error)   { return nil, false, nil, nil }
func (nopEngine) Store(uint64, []byte) error                       { return nil }
func (nopEngine) PaddingAccess() error                             { return nil }
func (nopEngine) StepBackground(bool) (core.BackgroundWork, error) { return core.BgNone, nil }
func (nopEngine) Flush() error                                     { return nil }

// BenchmarkShardHandoff prices the scheduler's hand-off alone: one
// goroutine alternates Do between the two shards of a pool of no-op
// engines, so ns/op is what the serving layer adds to every single
// operation. check_gates.sh holds it under a tenth of a plaintext access
// at 0 allocs/op.
func BenchmarkShardHandoff(b *testing.B) {
	pool, err := shard.NewPool([]shard.Engine{nopEngine{}, nopEngine{}}, shard.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	req := &shard.Request{Op: shard.OpRead, Dst: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.Do(i&1, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedLatency measures client-visible per-op latency — the
// time from submission to response — in synchronous versus async (staged)
// mode, under open-loop arrivals: the client pauses briefly between
// requests, as real serving traffic does. An async request returns after
// the path read and stash merge, and the shard's idle pump performs the
// write-back (serialization, encryption, store write) plus background
// eviction during the inter-arrival gap, so the client waits only for the
// read half of each access; a sync request makes the client wait for the
// whole protocol. Under zero-gap saturation the async mode degrades to
// sync throughput by design (the deferred queue drains inline), which the
// throughput benchmarks above cover. Encryption is on because write-back
// I/O is where the AES cost sits. Timed section excludes the think time.
func BenchmarkShardedLatency(b *testing.B) {
	const blocks = 1 << 13
	const blockSize = 64
	const think = 50 * time.Microsecond // inter-arrival gap (not timed)
	for _, mode := range []string{"sync", "async"} {
		for _, shards := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("mode=%s/shards=%d", mode, shards), func(b *testing.B) {
				s := newBenchSharded(b, Spec{
					Shards: shards,
					Blocks: blocks, BlockSize: blockSize,
					Encryption:    EncryptCounter,
					AsyncEviction: mode == "async",
				})
				defer s.Close()
				rng := rand.New(rand.NewSource(600))
				lat := make([]time.Duration, 0, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					addr := rng.Uint64() % blocks
					t0 := time.Now()
					if _, err := s.Read(addr); err != nil {
						b.Fatal(err)
					}
					lat = append(lat, time.Since(t0))
					b.StopTimer()
					time.Sleep(think)
					b.StartTimer()
				}
				b.StopTimer()
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				pct := func(p float64) float64 {
					i := int(p * float64(len(lat)-1))
					return float64(lat[i].Nanoseconds())
				}
				b.ReportMetric(pct(0.50), "p50-ns")
				b.ReportMetric(pct(0.99), "p99-ns")
				b.ReportMetric(pct(0.95), "p95-ns")
			})
		}
	}
}

// BenchmarkShardedBatchRandom measures the oblivious routing cost alone:
// plain (unpadded) batches under PartitionRandom, where every logical
// operation becomes a fetch from the block's current shard plus a
// relocation to a fresh uniform shard. Compare against BenchmarkShardedBatch
// at the same shard count for the routing-hiding overhead.
func BenchmarkShardedBatchRandom(b *testing.B) {
	const blocks = 1 << 14
	const blockSize = 64
	const batch = 64
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchSharded(b, Spec{
				Shards:    shards,
				Partition: PartitionRandom,
				Blocks:    blocks, BlockSize: blockSize, Encryption: EncryptNone,
			})
			defer s.Close()
			rng := rand.New(rand.NewSource(400))
			addrs := make([]uint64, batch)
			s.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range addrs {
					addrs[j] = rng.Uint64() % blocks
				}
				if _, err := s.ReadBatch(addrs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(s.Stats().PaddingPerReal(), "pad/real")
		})
	}
}

// BenchmarkShardedBatchPadded measures the fully oblivious mode —
// PartitionRandom plus padded batches, where every batch touches every
// shard equally often — and attaches the padding overhead as a metric.
// ops/s here versus BenchmarkShardedBatch is the total price of an
// input-independent shard schedule.
func BenchmarkShardedBatchPadded(b *testing.B) {
	const blocks = 1 << 14
	const blockSize = 64
	const batch = 64
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchSharded(b, Spec{
				Shards:    shards,
				Partition: PartitionRandom,
				Padded:    true,
				Blocks:    blocks, BlockSize: blockSize, Encryption: EncryptNone,
			})
			defer s.Close()
			rng := rand.New(rand.NewSource(500))
			addrs := make([]uint64, batch)
			s.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range addrs {
					addrs[j] = rng.Uint64() % blocks
				}
				if _, err := s.ReadBatch(addrs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(s.Stats().PaddingPerReal(), "pad/real")
		})
	}
}

// BenchmarkEvictionPath isolates the greedy eviction + path write cost.
func BenchmarkEvictionPath(b *testing.B) {
	p := core.Params{LeafLevel: 20, Z: 4, Blocks: 1 << 20, StashCapacity: 200, BackgroundEviction: true}
	store, err := core.NewMemStore(p.LeafLevel, p.Z, 0)
	if err != nil {
		b.Fatal(err)
	}
	src := core.NewMathLeafSource(rand.New(rand.NewSource(7)))
	pos, err := core.NewOnChipPositionMap(p.Groups(), 1<<20, src)
	if err != nil {
		b.Fatal(err)
	}
	o, err := core.New(p, store, pos, src)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Access(rng.Uint64()%(1<<20), core.OpWrite, nil); err != nil {
			b.Fatal(err)
		}
	}
}
