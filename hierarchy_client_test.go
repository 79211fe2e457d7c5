package pathoram

import (
	"bytes"
	"math/rand"
	"testing"
)

// Tests for the Hierarchy side of the unified Client API: the
// observability surface (aggregate stats, stash size), padding, the
// staged access path through the chain, and the per-level timed backend.
// Named TestHierarchy* for the CI `-run 'Client|Hierarchy'` shard.

func testHierarchy(t *testing.T, mutate func(*Spec)) *ORAM {
	t.Helper()
	cfg := Spec{
		PosMap: PosMapRecursive,
		Blocks: 2048, BlockSize: 16,
		PosBlockSize: 16, OnChipPosMapMax: 256,
		Encryption: EncryptNone,
		Rand:       rand.New(rand.NewSource(21)),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHierarchyAggregateStats pins the new observability surface:
// Stats() is the core.Stats.Merge of LevelStats (counters sum, peaks take
// the worst level), ResetStats clears every level, and StashSize sums the
// chain's stashes.
func TestHierarchyAggregateStats(t *testing.T) {
	h := testHierarchy(t, nil)
	if h.NumORAMs() < 2 {
		t.Fatalf("want a real chain, got %d ORAMs", h.NumORAMs())
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 300; i++ {
		if err := h.Write(rng.Uint64()%2048, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	var want Stats
	for _, s := range h.LevelStats() {
		want = want.Merge(s)
	}
	if got := h.Stats(); got != want {
		t.Errorf("Stats() = %+v, merged LevelStats = %+v", got, want)
	}
	// One program access = one real access per level.
	if got := h.Stats().RealAccesses; got != uint64(300*h.NumORAMs()) {
		t.Errorf("merged RealAccesses = %d, want %d", got, 300*h.NumORAMs())
	}
	var stash int
	for i := 0; i < h.NumORAMs(); i++ {
		stash += h.inner.Level(i).StashSize()
	}
	if got := h.StashSize(); got != stash {
		t.Errorf("StashSize() = %d, summed levels = %d", got, stash)
	}
	blocksBefore := h.Stats().BlocksInORAM
	h.ResetStats()
	after := h.Stats()
	if after.RealAccesses != 0 || after.DummyAccesses != 0 || after.StashPeak != 0 {
		t.Errorf("ResetStats left counters: %+v", after)
	}
	if after.BlocksInORAM != blocksBefore {
		t.Errorf("ResetStats clobbered the occupancy gauge: %d -> %d", blocksBefore, after.BlocksInORAM)
	}
	if h.DummyRounds() != 0 {
		t.Error("ResetStats left dummy rounds")
	}
}

// TestHierarchyPaddingTouchesEveryLevel pins the engine-conformance
// property the padded batch mode needs: one PaddingAccess walks the whole
// chain — exactly one padding access per level, in the same smallest-first
// order as a real access — so on the wire it is indistinguishable from
// real traffic.
func TestHierarchyPaddingTouchesEveryLevel(t *testing.T) {
	var order []int
	h := testHierarchy(t, func(cfg *Spec) {
		cfg.OnPathAccess = func(_, level int, _ uint64) { order = append(order, level) }
	})
	hn := h.NumORAMs()
	order = order[:0]
	if err := h.PaddingAccess(); err != nil {
		t.Fatal(err)
	}
	if len(order) != hn {
		t.Fatalf("padding touched %d ORAMs, want %d", len(order), hn)
	}
	for i, lvl := range order {
		if want := hn - 1 - i; lvl != want {
			t.Errorf("padding access %d hit level %d, want %d (smallest first)", i, lvl, want)
		}
	}
	for lvl, s := range h.LevelStats() {
		if s.PaddingAccesses != 1 {
			t.Errorf("level %d counted %d padding accesses, want 1", lvl, s.PaddingAccesses)
		}
		if s.RealAccesses != 0 {
			t.Errorf("level %d counted padding as real", lvl)
		}
	}
	if got := h.Stats().PaddingAccesses; got != uint64(hn) {
		t.Errorf("merged PaddingAccesses = %d, want %d", got, hn)
	}
}

// TestHierarchyAsyncBitIdenticalToSync is the staged-chain acceptance
// test: the same seeded workload through a synchronous and an
// async-eviction hierarchy must touch identical per-level leaf sequences
// and — after the async chain flushes — leave every level's tree
// byte-identical. Write-back deferral through the whole chain changes
// when I/O happens, never what state results.
func TestHierarchyAsyncBitIdenticalToSync(t *testing.T) {
	type access struct {
		level int
		leaf  uint64
	}
	run := func(async bool) (*ORAM, *[]access) {
		log := &[]access{}
		h := testHierarchy(t, func(cfg *Spec) {
			if async {
				cfg.AsyncEviction = true
				cfg.MaxDeferredWriteBacks = 3 // small: exercise the cap drain
			}
			cfg.Rand = rand.New(rand.NewSource(33))
			cfg.OnPathAccess = func(_, level int, leaf uint64) {
				*log = append(*log, access{level, leaf})
			}
		})
		rng := rand.New(rand.NewSource(34))
		for i := 0; i < 600; i++ {
			addr := rng.Uint64() % 2048
			if rng.Intn(2) == 0 {
				d := make([]byte, 16)
				rng.Read(d)
				if err := h.Write(addr, d); err != nil {
					t.Fatal(err)
				}
			} else if _, err := h.Read(addr); err != nil {
				t.Fatal(err)
			}
		}
		return h, log
	}
	syncH, syncLog := run(false)
	asyncH, asyncLog := run(true)
	if asyncH.PendingWriteBacks() == 0 {
		t.Error("async chain deferred nothing; the test exercised no staged path")
	}
	// Drain partly through the background pump, the rest through Flush.
	for i := 0; i < 5; i++ {
		if _, err := asyncH.StepBackground(false); err != nil {
			t.Fatal(err)
		}
	}
	if err := asyncH.Flush(); err != nil {
		t.Fatal(err)
	}
	if asyncH.PendingWriteBacks() != 0 {
		t.Fatalf("pending write-backs after Flush: %d", asyncH.PendingWriteBacks())
	}
	if len(*syncLog) != len(*asyncLog) {
		t.Fatalf("access counts diverge: sync %d, async %d", len(*syncLog), len(*asyncLog))
	}
	for i := range *syncLog {
		if (*syncLog)[i] != (*asyncLog)[i] {
			t.Fatalf("access sequences diverge at %d: sync %+v async %+v", i, (*syncLog)[i], (*asyncLog)[i])
		}
	}
	for lvl := 0; lvl < syncH.NumORAMs(); lvl++ {
		st := treeSnapshot(memTreeOf(t, syncH.inner.Level(lvl).BucketStore()))
		at := treeSnapshot(memTreeOf(t, asyncH.inner.Level(lvl).BucketStore()))
		if len(st) != len(at) {
			t.Fatalf("level %d: block counts diverge (sync %d, async %d)", lvl, len(st), len(at))
		}
		for j := range st {
			if st[j] != at[j] {
				t.Fatalf("level %d: trees diverge at block %d: sync %q async %q", lvl, j, st[j], at[j])
			}
		}
	}
}

// TestHierarchyTimedBackend covers the standalone timed hierarchy: one
// port per level on one bus, chain-serialized modeled time, and charges
// that account for every level's traffic.
func TestHierarchyTimedBackend(t *testing.T) {
	h := testHierarchy(t, func(cfg *Spec) {
		cfg.Backend = BackendDRAM
		cfg.DRAMChannels = 2
	})
	if ports := h.bus.ShardStats(); len(ports) != h.NumORAMs() {
		t.Fatalf("%d ports for %d levels", len(ports), h.NumORAMs())
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 200; i++ {
		if err := h.Write(rng.Uint64()%2048, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	ts, ok := h.TimingStats()
	if !ok {
		t.Fatal("timed hierarchy reported no timing stats")
	}
	st := h.Stats()
	wantReads := st.RealAccesses + st.DummyAccesses + st.PaddingAccesses
	if ts.PathReads != wantReads {
		t.Errorf("PathReads=%d, per-level protocol accesses=%d", ts.PathReads, wantReads)
	}
	if ts.PathWrites != wantReads {
		t.Errorf("PathWrites=%d, want %d (sync mode writes back every path)", ts.PathWrites, wantReads)
	}
	if ts.DRAM.Reads == 0 || ts.Cycles == 0 {
		t.Fatalf("timing stats flat: %+v", ts)
	}
	// Chain serialization: every level's port clock is bounded by the
	// shared frontier, and the per-level regions are disjoint (attach
	// order fixed), so the merged DRAM view reproduces the bus totals.
	var merged TimingStats
	for _, p := range h.bus.ShardStats() {
		merged = merged.Merge(p)
	}
	if merged.DRAM != ts.DRAM {
		t.Errorf("merged port DRAM stats %+v != TimingStats %+v", merged.DRAM, ts.DRAM)
	}
	// Untimed hierarchies report none.
	h2 := testHierarchy(t, nil)
	if _, ok := h2.TimingStats(); ok {
		t.Error("mem-backend hierarchy claimed timing stats")
	}
}

// TestHierarchyReadYourWritesEncrypted smoke-checks the chain with real
// encryption and integrity on every level under the unified constructor
// defaults (counter scheme, derived per-level keys).
func TestHierarchyReadYourWritesEncrypted(t *testing.T) {
	h, err := New(Spec{
		PosMap: PosMapRecursive,
		Blocks: 512, BlockSize: 16,
		PosBlockSize: 16, OnChipPosMapMax: 128,
		Encryption: EncryptCounter, Integrity: true,
		Key:  bytes.Repeat([]byte{7}, 16),
		Rand: rand.New(rand.NewSource(55)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.ExternalMemoryBytes() == 0 {
		t.Error("encrypted chain reported no external footprint")
	}
	shadow := map[uint64]byte{}
	rng := rand.New(rand.NewSource(56))
	for i := 0; i < 400; i++ {
		addr := rng.Uint64() % 512
		if rng.Intn(2) == 0 {
			b := byte(rng.Intn(256))
			if err := h.Write(addr, bytes.Repeat([]byte{b}, 16)); err != nil {
				t.Fatal(err)
			}
			shadow[addr] = b
		} else {
			got, err := h.Read(addr)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != shadow[addr] {
				t.Fatalf("step %d addr %d: got %d want %d", i, addr, got[0], shadow[addr])
			}
		}
	}
}

// TestHierarchyDummyRoundCounters: a real chain keeps the two eviction
// counters a lone tree keeps. Stats.MaxDummyRun is the longest inline
// drain in coordinated rounds, Stats.IdleEvictions the rounds
// StepBackground issued in idle time — both checked against what the test
// can count from outside (DummyRounds before and after each call).
func TestHierarchyDummyRoundCounters(t *testing.T) {
	h := testHierarchy(t, func(s *Spec) {
		s.Blocks, s.Z, s.PosZ, s.Utilization, s.StashCapacity = 1024, 2, 2, 0.75, 24
		s.OnChipPosMapMax = 64
	})
	if h.NumORAMs() < 3 {
		t.Fatalf("want a real chain, got %d ORAMs", h.NumORAMs())
	}
	rng := rand.New(rand.NewSource(23))
	var longest, idle uint64
	for i := 0; i < 3000; i++ {
		before := h.DummyRounds()
		if i%4 == 3 {
			w, err := h.StepBackground(true)
			if err != nil {
				t.Fatal(err)
			}
			if w == BgEviction {
				idle++
			}
			continue
		}
		if err := h.Write(rng.Uint64()%1024, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		longest = max(longest, h.DummyRounds()-before)
	}
	if longest == 0 || idle == 0 {
		t.Fatalf("the workload drained %d rounds inline at most and %d in idle time; it must do both", longest, idle)
	}
	st := h.Stats()
	if uint64(st.MaxDummyRun) != longest {
		t.Errorf("Stats.MaxDummyRun = %d, longest inline drain was %d rounds", st.MaxDummyRun, longest)
	}
	if st.IdleEvictions != idle {
		t.Errorf("Stats.IdleEvictions = %d, StepBackground issued %d idle rounds", st.IdleEvictions, idle)
	}
	if data := h.LevelStats()[0]; data.IdleEvictions != idle || data.IdleEvictions > data.DummyAccesses {
		t.Errorf("data level reports %d idle evictions of %d dummy accesses, want %d", data.IdleEvictions, data.DummyAccesses, idle)
	}
	h.ResetStats()
	if st := h.Stats(); st.MaxDummyRun != 0 || st.IdleEvictions != 0 {
		t.Errorf("ResetStats left MaxDummyRun %d, IdleEvictions %d", st.MaxDummyRun, st.IdleEvictions)
	}
}

// TestHierarchyChainLengthViews: Stats' ChainLevels/ChainSamples and
// ChainLengthHist are two views of one count and must agree — on a real
// chain, where every operation is sampled, and on a chain of one ORAM,
// which has no chain to measure and samples nothing in either view
// (however the one-ORAM chain was asked for).
func TestHierarchyChainLengthViews(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"flat":                     func(s *Spec) { s.PosMap, s.PosBlockSize, s.OnChipPosMapMax = PosMapOnChip, 0, 0 },
		"recursive, map fits":      func(s *Spec) { s.OnChipPosMapMax = 1 << 20 },
		"recursive, 3+ ORAMs":      func(s *Spec) { s.OnChipPosMapMax = 64 },
		"recursive, 3+ ORAMs, PLB": func(s *Spec) { s.OnChipPosMapMax, s.PLBBytes = 64, 512 },
	} {
		spec := Spec{
			Blocks: 1024, BlockSize: 16, Encryption: EncryptNone,
			PosMap: PosMapRecursive, PosBlockSize: 16,
			Rand: rand.New(rand.NewSource(24)),
		}
		mutate(&spec)
		o, err := New(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		const ops = 400
		for i := uint64(0); i < ops; i++ {
			if _, err := o.Read(i * 5 % 1024); err != nil {
				t.Fatal(err)
			}
		}
		st := o.Stats()
		var samples, levels uint64
		for n, count := range o.ChainLengthHist() {
			samples += count
			levels += uint64(n) * count
		}
		if samples != st.ChainSamples || levels != st.ChainLevels {
			t.Errorf("%s: histogram holds %d samples / %d levels, Stats %d / %d",
				name, samples, levels, st.ChainSamples, st.ChainLevels)
		}
		want := uint64(ops)
		if o.NumORAMs() == 1 {
			want = 0
		} else if o.NumORAMs() < 3 {
			t.Errorf("%s: chain of %d ORAMs, want at least 3", name, o.NumORAMs())
		}
		if st.ChainSamples != want {
			t.Errorf("%s: %d ORAMs sampled %d chain lengths over %d ops, want %d",
				name, o.NumORAMs(), st.ChainSamples, ops, want)
		}
	}
}

// TestHierarchyCheckoutAcrossRemaps replays a mixed workload of inclusive
// accesses and exclusive Load/Store round trips on a recursive chain with
// a PLB and two-block super blocks: blocks stay checked out while their
// siblings are accessed (remapping the shared group, often on a PLB hit),
// then come back with random Stores. Each Store must use the group's leaf
// as of its last remap, or the block lands off its path and reads back
// wrong after the final Flush.
func TestHierarchyCheckoutAcrossRemaps(t *testing.T) {
	const blocks = 256
	h := testHierarchy(t, func(s *Spec) {
		s.Blocks, s.BlockSize, s.SuperBlockSize = blocks, 8, 2
		s.OnChipPosMapMax, s.PLBBytes = 64, 512
	})
	if h.NumORAMs() < 3 {
		t.Fatalf("want a real chain, got %d ORAMs", h.NumORAMs())
	}
	rng := rand.New(rand.NewSource(25))
	shadow := map[uint64][]byte{} // what each address should read as
	cache := map[uint64][]byte{}  // checked-out blocks (the "processor cache")
	expect := func(addr uint64) []byte {
		if d, ok := shadow[addr]; ok {
			return d
		}
		return make([]byte, 8)
	}
	remapsWhileOut := 0
	for i := 0; i < 4000; i++ {
		addr := rng.Uint64() % blocks
		op := rng.Intn(5)
		if _, held := cache[addr]; held && op < 4 {
			continue
		}
		if _, sibOut := cache[addr^1]; sibOut && op < 4 {
			remapsWhileOut++
		}
		switch op {
		case 0: // oblivious write
			d := bytes.Repeat([]byte{byte(rng.Intn(256))}, 8)
			if err := h.Write(addr, d); err != nil {
				t.Fatal(err)
			}
			shadow[addr] = d
		case 1: // oblivious read
			got, err := h.Read(addr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, expect(addr)) {
				t.Fatalf("step %d: Read(%d)=% x want % x", i, addr, got, expect(addr))
			}
		case 2: // update
			if err := h.Update(addr, func(d []byte) { d[7] ^= 0x55 }); err != nil {
				t.Fatal(err)
			}
			d := append([]byte(nil), expect(addr)...)
			d[7] ^= 0x55
			shadow[addr] = d
		case 3: // exclusive load (also pulls the resident sibling)
			data, _, group, err := h.Load(addr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, expect(addr)) {
				t.Fatalf("step %d: Load(%d)=% x want % x", i, addr, data, expect(addr))
			}
			cache[addr] = data
			for _, g := range group {
				if !bytes.Equal(g.Data, expect(g.Addr)) {
					t.Fatalf("step %d: group member %d=% x want % x", i, g.Addr, g.Data, expect(g.Addr))
				}
				cache[g.Addr] = g.Data
			}
		case 4: // write back one cached block, possibly dirty
			for a, d := range cache {
				if rng.Intn(2) == 0 {
					d = bytes.Repeat([]byte{byte(rng.Intn(256))}, 8)
				}
				if err := h.Store(a, d); err != nil {
					t.Fatal(err)
				}
				shadow[a] = append([]byte(nil), d...)
				delete(cache, a)
				break
			}
		}
	}
	for a, d := range cache {
		if err := h.Store(a, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if remapsWhileOut == 0 || h.Stats().PLBHits == 0 {
		t.Fatalf("%d accesses remapped a group with a member out, %d PLB hits; the test must do both",
			remapsWhileOut, h.Stats().PLBHits)
	}
	for a := uint64(0); a < blocks; a++ {
		got, err := h.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, expect(a)) {
			t.Fatalf("final Read(%d)=% x want % x", a, got, expect(a))
		}
	}
}
