package pathoram

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/testutil"
)

// Tests for the unified Client API and the Open(Spec) composition matrix.
// Everything here is named TestClient* so CI can run the suite with
// `-run 'Client|Hierarchy'`.

// hierEngine unwraps shard i's engine as a *Hierarchy (recursive configs).
func hierEngine(t *testing.T, c Client, i int) *Hierarchy {
	t.Helper()
	s, ok := c.(*Sharded)
	if !ok {
		t.Fatalf("Open returned %T, want *Sharded", c)
	}
	return s.engines[i]
}

// TestClientInterfaceCompliance drives every construction — flat ORAM,
// hierarchy, sharded fleet — through the Client interface alone: the same
// generic workload must behave identically against all of them.
func TestClientInterfaceCompliance(t *testing.T) {
	const blocks = 512
	const blockSize = 16
	builds := map[string]func() (Client, error){
		"oram": func() (Client, error) {
			return New(Spec{Blocks: blocks, BlockSize: blockSize,
				Encryption: EncryptNone, Rand: rand.New(rand.NewSource(1))})
		},
		"hierarchy": func() (Client, error) {
			return NewHierarchy(Spec{Blocks: blocks, BlockSize: blockSize,
				PosBlockSize: 16, OnChipPosMapMax: 128,
				Encryption: EncryptNone, Rand: rand.New(rand.NewSource(2))})
		},
		"sharded-flat": func() (Client, error) {
			return Open(Spec{Blocks: blocks, BlockSize: blockSize, Shards: 3,
				Encryption: EncryptNone, Rand: rand.New(rand.NewSource(3))})
		},
		"sharded-recursive": func() (Client, error) {
			return Open(Spec{Blocks: blocks, BlockSize: blockSize, Shards: 3,
				PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 128,
				Encryption: EncryptNone, Rand: rand.New(rand.NewSource(4))})
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			c, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// Batched writes, batched readback.
			addrs := make([]uint64, 64)
			data := make([][]byte, 64)
			for i := range addrs {
				addrs[i] = uint64(i * 7 % blocks)
				data[i] = bytes.Repeat([]byte{byte(i + 1)}, blockSize)
			}
			if err := c.WriteBatch(addrs, data); err != nil {
				t.Fatal(err)
			}
			got, err := c.ReadBatch(addrs)
			if err != nil {
				t.Fatal(err)
			}
			// Duplicates in addrs: later write wins; verify against a shadow.
			shadow := map[uint64][]byte{}
			for i, a := range addrs {
				shadow[a] = data[i]
			}
			for i, a := range addrs {
				if !bytes.Equal(got[i], shadow[a]) {
					t.Fatalf("slot %d (addr %d): got %x", i, a, got[i][0])
				}
			}
			// Single ops and update.
			if err := c.Update(addrs[0], func(d []byte) { d[0] = 0xEE }); err != nil {
				t.Fatal(err)
			}
			one, err := c.Read(addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			if one[0] != 0xEE {
				t.Fatalf("update not visible: %x", one[0])
			}
			// Exclusive checkout round-trip.
			d, found, group, err := c.Load(addrs[1])
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatal("loaded block not found")
			}
			if err := c.Store(addrs[1], d); err != nil {
				t.Fatal(err)
			}
			for _, g := range group {
				if err := c.Store(g.Addr, g.Data); err != nil {
					t.Fatal(err)
				}
			}
			// Padding, background work, flush: must not perturb contents.
			if err := c.PaddingAccess(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.StepBackground(true); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if c.PendingWriteBacks() != 0 {
				t.Errorf("pending write-backs after Flush: %d", c.PendingWriteBacks())
			}
			st := c.Stats()
			if st.RealAccesses == 0 || st.PaddingAccesses == 0 {
				t.Errorf("stats flat: %+v", st)
			}
			if c.StashSize() < 0 {
				t.Error("negative stash")
			}
			c.ResetStats()
			if c.Stats().RealAccesses != 0 {
				t.Error("ResetStats left counters")
			}
			final, err := c.Read(addrs[1])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(final, shadow[addrs[1]]) {
				t.Fatal("contents perturbed by padding/background work")
			}
			if _, ok := c.TimingStats(); ok {
				t.Error("untimed construction claimed timing stats")
			}
		})
	}
}

// TestClientShardedRecursiveEquivalence is the composition acceptance
// test: the same seeded workload replayed against a flat Sharded and an
// Open sharded-recursive client must agree with the shadow model (and
// therefore with each other) at every step and after a full readback,
// while every level of every shard's hierarchy keeps a uniform leaf
// distribution — the per-shard Path ORAM invariant survives both the
// serving layer and the recursion.
func TestClientShardedRecursiveEquivalence(t *testing.T) {
	const blocks = 1536
	const blockSize = 16
	const shards = 3
	const ops = 4000

	type leafKey struct{ shard, level int }
	var mu sync.Mutex
	hists := map[leafKey][]uint64{}

	rec, err := Open(Spec{
		Blocks: blocks, BlockSize: blockSize, Shards: shards,
		PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 256,
		Encryption: EncryptNone,
		Rand:       rand.New(rand.NewSource(42)),
		OnPathAccess: func(shard, level int, leaf uint64) {
			mu.Lock()
			k := leafKey{shard, level}
			for uint64(len(hists[k])) <= leaf {
				hists[k] = append(hists[k], 0)
			}
			hists[k][leaf]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.(*Sharded).NumORAMs(); got < 2 {
		t.Fatalf("recursive spec built a chain of depth %d, want >= 2", got)
	}

	flat, err := NewSharded(Spec{
		Shards: shards,
		Blocks: blocks, BlockSize: blockSize,
		Encryption: EncryptNone, Rand: rand.New(rand.NewSource(43)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()

	shadow := map[uint64][]byte{}
	expect := func(addr uint64) []byte {
		if d, ok := shadow[addr]; ok {
			return d
		}
		return make([]byte, blockSize)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < ops; i++ {
		addr := rng.Uint64() % blocks
		if rng.Intn(2) == 0 {
			d := make([]byte, blockSize)
			rng.Read(d)
			if err := rec.Write(addr, d); err != nil {
				t.Fatal(err)
			}
			if err := flat.Write(addr, d); err != nil {
				t.Fatal(err)
			}
			shadow[addr] = d
		} else {
			want := expect(addr)
			gotR, err := rec.Read(addr)
			if err != nil {
				t.Fatal(err)
			}
			gotF, err := flat.Read(addr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotR, want) || !bytes.Equal(gotF, want) {
				t.Fatalf("op %d: read(%d) recursive=%x flat=%x want %x", i, addr, gotR, gotF, want)
			}
		}
	}
	// Full logical readback: both compositions hold identical contents.
	all := make([]uint64, blocks)
	for i := range all {
		all[i] = uint64(i)
	}
	gotR, err := rec.ReadBatch(all)
	if err != nil {
		t.Fatal(err)
	}
	gotF, err := flat.ReadBatch(all)
	if err != nil {
		t.Fatal(err)
	}
	for a := range all {
		want := expect(uint64(a))
		if !bytes.Equal(gotR[a], want) || !bytes.Equal(gotF[a], want) {
			t.Fatalf("readback diverges at %d", a)
		}
	}
	// Per-level leaf uniformity, shard by shard: chi-square against the
	// uniform distribution with a +6-sigma bound on the statistic.
	for i := 0; i < shards; i++ {
		layout := hierEngine(t, rec, i).Layout()
		for lvl, info := range layout {
			counts := hists[leafKey{i, lvl}]
			leaves := uint64(1) << uint(info.LeafLevel)
			for uint64(len(counts)) < leaves {
				counts = append(counts, 0)
			}
			var total uint64
			for _, c := range counts {
				total += c
			}
			if total < 8*leaves {
				continue // too few samples for a meaningful statistic
			}
			if x2 := testutil.ChiSquare(counts); x2 > testutil.UniformThreshold(len(counts)) {
				t.Errorf("shard %d level %d: leaf distribution not uniform: chi2=%.1f over %d leaves (%d samples)",
					i, lvl, x2, leaves, total)
			}
		}
	}
}

// TestClientShardedHierarchyConcurrent hammers an async sharded-recursive
// client from many goroutines under the race detector: exclusive engine
// ownership, the shared bus discipline and read-your-writes must all
// survive the composition.
func TestClientShardedHierarchyConcurrent(t *testing.T) {
	const blocks = 1024
	const shards = 4
	const clients = 8
	const opsPer = 40
	c, err := Open(Spec{
		Blocks: blocks, BlockSize: 16, Shards: shards,
		PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 256,
		Encryption:    EncryptNone,
		AsyncEviction: true,
		Rand:          rand.New(rand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			base := uint64(cl) * (blocks / clients)
			buf := make([]byte, 16)
			for i := 0; i < opsPer; i++ {
				addr := base + uint64(i)%(blocks/clients)
				buf[0] = byte(addr)
				if err := c.Write(addr, buf); err != nil {
					t.Errorf("client %d: %v", cl, err)
					return
				}
				got, err := c.Read(addr)
				if err != nil {
					t.Errorf("client %d: %v", cl, err)
					return
				}
				if got[0] != byte(addr) {
					t.Errorf("client %d: read-your-writes violated at %d", cl, addr)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.PendingWriteBacks() != 0 {
		t.Errorf("pending write-backs after Close: %d", c.PendingWriteBacks())
	}
	if st := c.Stats(); st.RealAccesses == 0 {
		t.Error("no accesses recorded")
	}
}

// TestClientDRAMRecursiveReplay extends the timed-backend acceptance test
// to the recursive composition: a seeded trace against Open sharded
// hierarchies on BackendMem and BackendDRAM must touch the same
// (shard, level, leaf) sequence, read identically, and leave every level
// of every shard's chain byte-identical after Flush — timing is
// observation-only through the whole recursive stack.
func TestClientDRAMRecursiveReplay(t *testing.T) {
	const blocks = 600
	const shards = 2
	const ops = 900
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			type access struct {
				shard, level int
				leaf         uint64
			}
			build := func(backend Backend) (Client, *[]access) {
				log := &[]access{}
				var mu sync.Mutex
				spec := Spec{
					Blocks: blocks, BlockSize: 16, Shards: shards,
					PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 128,
					Encryption:    EncryptNone,
					Backend:       backend,
					AsyncEviction: async,
					Rand:          rand.New(rand.NewSource(77)),
					OnPathAccess: func(sh, lvl int, leaf uint64) {
						mu.Lock()
						*log = append(*log, access{sh, lvl, leaf})
						mu.Unlock()
					},
				}
				if backend == BackendDRAM {
					spec.DRAMChannels = 2
				}
				c, err := Open(spec)
				if err != nil {
					t.Fatal(err)
				}
				return c, log
			}
			memC, memLog := build(BackendMem)
			defer memC.Close()
			dramC, dramLog := build(BackendDRAM)
			defer dramC.Close()

			shadow := map[uint64][]byte{}
			rng := rand.New(rand.NewSource(123))
			for i := 0; i < ops; i++ {
				addr := rng.Uint64() % blocks
				if rng.Intn(2) == 0 {
					d := make([]byte, 16)
					rng.Read(d)
					if err := memC.Write(addr, d); err != nil {
						t.Fatal(err)
					}
					if err := dramC.Write(addr, d); err != nil {
						t.Fatal(err)
					}
					shadow[addr] = d
				} else {
					want, ok := shadow[addr]
					if !ok {
						want = make([]byte, 16)
					}
					gotM, err := memC.Read(addr)
					if err != nil {
						t.Fatal(err)
					}
					gotD, err := dramC.Read(addr)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotM, want) || !bytes.Equal(gotD, want) {
						t.Fatalf("op %d: read(%d) mem=%x dram=%x", i, addr, gotM, gotD)
					}
				}
			}
			if err := memC.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := dramC.Flush(); err != nil {
				t.Fatal(err)
			}
			// Identical (shard, level, leaf) sequences.
			if len(*memLog) != len(*dramLog) {
				t.Fatalf("access counts diverge: mem %d, dram %d", len(*memLog), len(*dramLog))
			}
			for j := range *memLog {
				if (*memLog)[j] != (*dramLog)[j] {
					t.Fatalf("access sequences diverge at %d: mem %+v dram %+v", j, (*memLog)[j], (*dramLog)[j])
				}
			}
			// Byte-identical trees, shard by shard, level by level.
			for i := 0; i < shards; i++ {
				mh, dh := hierEngine(t, memC, i), hierEngine(t, dramC, i)
				if mh.NumORAMs() != dh.NumORAMs() {
					t.Fatalf("shard %d: chain depths diverge", i)
				}
				for lvl := 0; lvl < mh.NumORAMs(); lvl++ {
					mt := treeSnapshot(memTreeOf(t, mh.inner.Level(lvl).BucketStore()))
					dt := treeSnapshot(memTreeOf(t, dh.inner.Level(lvl).BucketStore()))
					if len(mt) != len(dt) {
						t.Fatalf("shard %d level %d: block counts diverge (mem %d, dram %d)", i, lvl, len(mt), len(dt))
					}
					for j := range mt {
						if mt[j] != dt[j] {
							t.Fatalf("shard %d level %d: trees diverge at block %d: mem %q dram %q", i, lvl, j, mt[j], dt[j])
						}
					}
				}
			}
			// The timed run really drove the model through every level.
			ts, ok := dramC.TimingStats()
			if !ok {
				t.Fatal("DRAM recursive client reported no timing stats")
			}
			if ts.PathReads == 0 || ts.PathWrites == 0 || ts.DRAM.Reads == 0 {
				t.Fatalf("timing stats flat: %+v", ts)
			}
			// Every access walks H trees: path reads charged must be the
			// per-level real+dummy+padding access total, not just data-ORAM
			// traffic.
			st := dramC.Stats()
			wantReads := st.RealAccesses + st.DummyAccesses + st.PaddingAccesses
			if ts.PathReads != wantReads {
				t.Errorf("PathReads=%d, protocol accesses (all levels)=%d", ts.PathReads, wantReads)
			}
			if async && ts.DeferredWrites == 0 {
				t.Error("async timed run charged no deferred write-backs")
			}
			if _, ok := memC.TimingStats(); ok {
				t.Error("mem backend claimed timing stats")
			}
		})
	}
}

// TestClientShardedLoadStore covers the exclusive-checkout path through
// the serving layer: group members come back with correctly translated
// logical addresses under both fixed partitions, and the oblivious
// routing mode rejects checkout.
func TestClientShardedLoadStore(t *testing.T) {
	for _, part := range []Partition{PartitionStripe, PartitionRange} {
		t.Run(partName(part), func(t *testing.T) {
			c, err := Open(Spec{
				Blocks: 256, BlockSize: 8, Shards: 3, Partition: part,
				SuperBlockSize: 2,
				Encryption:     EncryptNone,
				Rand:           rand.New(rand.NewSource(5)),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			s := c.(*Sharded)
			// Two shard-local neighbors: local addresses 2k and 2k+1 of one
			// shard form a super-block group.
			sh := 1
			a0, a1 := s.globalOf(sh, 6), s.globalOf(sh, 7)
			if err := c.Write(a0, bytes.Repeat([]byte{1}, 8)); err != nil {
				t.Fatal(err)
			}
			if err := c.Write(a1, bytes.Repeat([]byte{2}, 8)); err != nil {
				t.Fatal(err)
			}
			data, found, group, err := c.Load(a0)
			if err != nil {
				t.Fatal(err)
			}
			if !found || data[0] != 1 {
				t.Fatalf("Load(%d): found=%v data=%x", a0, found, data)
			}
			if len(group) != 1 || group[0].Addr != a1 || group[0].Data[0] != 2 {
				t.Fatalf("group sibling mistranslated: %+v (want addr %d)", group, a1)
			}
			// While checked out, a plain access must fail on that shard.
			if _, err := c.Read(a0); err == nil {
				t.Error("read of checked-out block succeeded")
			}
			if err := c.Store(a0, bytes.Repeat([]byte{9}, 8)); err != nil {
				t.Fatal(err)
			}
			if err := c.Store(a1, group[0].Data); err != nil {
				t.Fatal(err)
			}
			got, err := c.Read(a0)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != 9 {
				t.Fatalf("after Store: %x", got[0])
			}
		})
	}
	t.Run("random-rejects", func(t *testing.T) {
		c, err := Open(Spec{
			Blocks: 64, BlockSize: 8, Shards: 2, Partition: PartitionRandom,
			Encryption: EncryptNone, Rand: rand.New(rand.NewSource(6)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, _, _, err := c.Load(3); err == nil {
			t.Error("Load under PartitionRandom succeeded")
		}
		if err := c.Store(3, make([]byte, 8)); err == nil {
			t.Error("Store under PartitionRandom succeeded")
		}
		// PaddingAccess must mirror the two-leg shape real operations have
		// here: exactly two scheduler padding ops per call.
		if err := c.PaddingAccess(); err != nil {
			t.Fatal(err)
		}
		if got := c.(*Sharded).SchedulerStats().PaddingOps; got != 2 {
			t.Errorf("PaddingAccess under PartitionRandom issued %d legs, want 2", got)
		}
	})
	t.Run("fixed-single-leg", func(t *testing.T) {
		c, err := Open(Spec{
			Blocks: 64, BlockSize: 8, Shards: 2,
			Encryption: EncryptNone, Rand: rand.New(rand.NewSource(7)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.PaddingAccess(); err != nil {
			t.Fatal(err)
		}
		if got := c.(*Sharded).SchedulerStats().PaddingOps; got != 1 {
			t.Errorf("PaddingAccess under a fixed partition issued %d legs, want 1", got)
		}
	})
}

// TestClientOpenValidation pins Open's config hygiene: recursion knobs on
// a flat spec are rejected (a sweep must never vary an inert field), and
// unknown policies fail.
func TestClientOpenValidation(t *testing.T) {
	if _, err := Open(Spec{Blocks: 64, BlockSize: 8, PosBlockSize: 16}); err == nil {
		t.Error("flat spec with PosBlockSize accepted")
	}
	if _, err := Open(Spec{Blocks: 64, BlockSize: 8, OnChipPosMapMax: 64}); err == nil {
		t.Error("flat spec with OnChipPosMapMax accepted")
	}
	if _, err := Open(Spec{Blocks: 64, BlockSize: 8, PosMap: PosMapPolicy(99)}); err == nil {
		t.Error("unknown posmap policy accepted")
	}
	if _, err := Open(Spec{Blocks: 64, BlockSize: 8, DRAMChannels: 4}); err == nil {
		t.Error("untimed spec with DRAMChannels accepted")
	}
	if _, err := Open(Spec{Blocks: 64, BlockSize: 8, DRAMSerialize: true}); err == nil {
		t.Error("untimed spec with DRAMSerialize accepted")
	}
	if _, err := Open(Spec{BlockSize: 8}); err == nil {
		t.Error("zero Blocks accepted")
	}
	// The composed construction reports its shape.
	c, err := Open(Spec{Blocks: 256, BlockSize: 8, Shards: 2,
		PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 64,
		Encryption: EncryptNone, Rand: rand.New(rand.NewSource(8))})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.(*Sharded)
	if s.NumORAMs() < 2 {
		t.Errorf("recursive chain depth %d", s.NumORAMs())
	}
	if b := s.OnChipPositionMapBytes(); b == 0 || b > 2*64 {
		t.Errorf("on-chip posmap bytes %d, want in (0, %d]", b, 2*64)
	}
	flatC, err := Open(Spec{Blocks: 256, BlockSize: 8, Shards: 2,
		Encryption: EncryptNone, Rand: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	defer flatC.Close()
	fs := flatC.(*Sharded)
	if fs.NumORAMs() != 1 {
		t.Errorf("flat chain depth %d", fs.NumORAMs())
	}
	// Flat on-chip state is the whole map: 4 bytes per block.
	if b := fs.OnChipPositionMapBytes(); b != 4*256 {
		t.Errorf("flat on-chip posmap bytes %d, want %d", b, 4*256)
	}
}

// TestClientClosedErrors pins the post-Close contract of the new Client
// entry points on the serving layer.
func TestClientClosedErrors(t *testing.T) {
	c, err := Open(Spec{Blocks: 64, BlockSize: 8, Shards: 2,
		Encryption: EncryptNone, Rand: rand.New(rand.NewSource(10))})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Load(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Load after Close = %v, want ErrClosed", err)
	}
	if err := c.Store(1, make([]byte, 8)); !errors.Is(err, ErrClosed) {
		t.Errorf("Store after Close = %v, want ErrClosed", err)
	}
	if err := c.PaddingAccess(); !errors.Is(err, ErrClosed) {
		t.Errorf("PaddingAccess after Close = %v, want ErrClosed", err)
	}
	// StepBackground degrades to a direct pump on the quiescent engines.
	if _, err := c.StepBackground(false); err != nil {
		t.Errorf("StepBackground after Close: %v", err)
	}
}
