package pathoram

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// Integration tests for the position-map acceleration pair: the lookaside
// cache (PLB, Section 3.3.3) and the Figure 5(b) speculative chain
// overlap, both through Open(Spec). Named TestPLB*/TestOverlap* for the
// CI `-run 'PLB|Overlap'` shard.

// plbSpec is a small deterministic recursive spec with a PLB. Variants that
// turn on AsyncEviction go through async; idle time only completes owed
// write-backs, which draw no randomness, so single-client replays stay
// exactly reproducible (see dramConfig).
func plbSpec(seed int64) Spec {
	return Spec{
		Blocks: 300, BlockSize: 16, Shards: 2,
		PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 128,
		PLBBytes:   2048,
		Encryption: EncryptNone,
		Rand:       rand.New(rand.NewSource(seed)),
	}
}

func async(s *Spec) { s.AsyncEviction = true }

// replayPLB drives one seeded workload through a spec variant and returns
// the per-shard data-level leaf sequences and the post-Flush per-shard,
// per-level tree snapshots.
func replayPLB(t *testing.T, mutate func(*Spec)) (leaves [][]uint64, trees []string) {
	t.Helper()
	spec := plbSpec(900)
	if mutate != nil {
		mutate(&spec)
	}
	logs := make([][]uint64, spec.Shards)
	spec.OnPathAccess = func(shard, level int, leaf uint64) {
		if level == 0 {
			logs[shard] = append(logs[shard], leaf)
		}
	}
	c, err := Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(901))
	// Reuse-heavy workload so the PLB actually hits: half the ops land on
	// a 16-address hot set.
	for i := 0; i < 900; i++ {
		addr := rng.Uint64() % spec.Blocks
		if rng.Intn(2) == 0 {
			addr = rng.Uint64() % 16
		}
		if rng.Intn(2) == 0 {
			d := make([]byte, 16)
			rng.Read(d)
			if err := c.Write(addr, d); err != nil {
				t.Fatal(err)
			}
		} else if _, err := c.Read(addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	s := c.(*Sharded)
	for sh := 0; sh < spec.Shards; sh++ {
		h := hierEngine(t, c, sh)
		for lvl := 0; lvl < h.NumORAMs(); lvl++ {
			snap := treeSnapshot(memTreeOf(t, h.inner.Level(lvl).BucketStore()))
			trees = append(trees, fmt.Sprintf("shard%d/level%d:%s", sh, lvl, strings.Join(snap, "|")))
		}
	}
	_ = s
	return logs, trees
}

// TestPLBClientEquivalenceReplay is the acceptance test for the cache:
// the same seeded trace through {sync,async}×{mem,dram} with the PLB on
// must touch identical data-ORAM leaf sequences and — after Flush — leave
// every shard's every tree byte-identical. Neither write-back staging nor
// the timed backend may perturb what the cache does, only when its
// traffic is charged.
func TestPLBClientEquivalenceReplay(t *testing.T) {
	type variant struct {
		name   string
		mutate func(*Spec)
	}
	variants := []variant{
		{"mem/sync", nil},
		{"mem/async", async},
		{"dram/sync", func(s *Spec) { s.Backend = BackendDRAM }},
		{"dram/async", func(s *Spec) { s.Backend = BackendDRAM; async(s) }},
	}
	baseLeaves, baseTrees := replayPLB(t, variants[0].mutate)
	var total int
	for _, l := range baseLeaves {
		total += len(l)
	}
	if total == 0 {
		t.Fatal("baseline replay touched no data paths")
	}
	for _, v := range variants[1:] {
		leaves, trees := replayPLB(t, v.mutate)
		if len(leaves) != len(baseLeaves) {
			t.Fatalf("%s: shard count diverged", v.name)
		}
		for sh := range baseLeaves {
			if len(leaves[sh]) != len(baseLeaves[sh]) {
				t.Fatalf("%s shard %d: %d data accesses, baseline %d",
					v.name, sh, len(leaves[sh]), len(baseLeaves[sh]))
			}
			for i := range baseLeaves[sh] {
				if leaves[sh][i] != baseLeaves[sh][i] {
					t.Fatalf("%s shard %d: leaf sequence diverges at %d: %d vs %d",
						v.name, sh, i, leaves[sh][i], baseLeaves[sh][i])
				}
			}
		}
		if len(trees) != len(baseTrees) {
			t.Fatalf("%s: tree count diverged", v.name)
		}
		for i := range baseTrees {
			if trees[i] != baseTrees[i] {
				t.Fatalf("%s: post-Flush tree %d diverges from baseline", v.name, i)
			}
		}
	}
}

// TestPLBLogicalContentMatchesUncached replays one trace against a cached
// and an uncached client and checks every read — including a full
// post-Flush sweep — returns identical bytes. The PLB reorders label
// traffic; it must never change logical content.
func TestPLBLogicalContentMatchesUncached(t *testing.T) {
	run := func(plbBytes uint64, constShape bool) (Client, map[uint64][]byte) {
		spec := plbSpec(910)
		spec.PLBBytes = plbBytes
		spec.PLBConstantShape = constShape
		c, err := Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		shadow := map[uint64][]byte{}
		rng := rand.New(rand.NewSource(911))
		for i := 0; i < 700; i++ {
			addr := rng.Uint64() % spec.Blocks
			if rng.Intn(3) > 0 {
				d := make([]byte, 16)
				rng.Read(d)
				if err := c.Write(addr, d); err != nil {
					t.Fatal(err)
				}
				shadow[addr] = d
			} else {
				got, err := c.Read(addr)
				if err != nil {
					t.Fatal(err)
				}
				want, ok := shadow[addr]
				if !ok {
					want = make([]byte, 16)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d addr %d: got % x want % x", i, addr, got, want)
				}
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return c, shadow
	}
	for _, mode := range []struct {
		name       string
		plb        uint64
		constShape bool
	}{
		{"off", 0, false},
		{"on", 2048, false},
		{"on+constant-shape", 2048, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			c, shadow := run(mode.plb, mode.constShape)
			defer c.Close()
			for addr, want := range shadow {
				got, err := c.Read(addr)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("post-flush addr %d: got % x want % x", addr, got, want)
				}
			}
		})
	}
}

// TestPLBDataLeafUniformity is the security regression for cached-label
// reuse: even under a reuse-heavy workload with a high PLB hit rate, the
// data ORAM's observed leaf sequence must stay uniform — every access
// still remaps its group to a fresh uniform leaf, hit or miss.
func TestPLBDataLeafUniformity(t *testing.T) {
	spec := plbSpec(920)
	spec.Shards = 1
	var leaves []uint64
	spec.OnPathAccess = func(_, level int, leaf uint64) {
		if level == 0 {
			leaves = append(leaves, leaf)
		}
	}
	c, err := Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(921))
	for i := 0; i < 4000; i++ {
		// 8 hot addresses, hammered: near-total PLB hit rate on the chain.
		addr := rng.Uint64() % 8
		if rng.Intn(5) == 0 {
			addr = rng.Uint64() % spec.Blocks
		}
		if err := c.Write(addr, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.PLBHitRate() < 0.5 {
		t.Fatalf("hit rate %.2f too low for a reuse-skew regression", st.PLBHitRate())
	}
	h := hierEngine(t, c, 0)
	bins := uint64(1) << uint(h.inner.Level(0).Params().LeafLevel)
	counts := make([]uint64, bins)
	for _, l := range leaves {
		counts[l%bins]++
	}
	x2 := testutil.ChiSquare(counts)
	if thr := testutil.UniformThreshold(int(bins)); x2 > thr {
		t.Errorf("data-level leaves skewed under cached-label reuse: chi2=%.1f threshold=%.1f", x2, thr)
	}
}

// TestOverlapFrontierBeatsSerial is the Figure 5(b) acceptance test: the
// same seeded recursive trace on the timed backend completes at a
// strictly earlier modeled cycle with cross-request overlap than under
// the serial 5(a) chain clock — while touching the identical data-ORAM
// leaf sequence, since scheduling must never perturb the protocol.
func TestOverlapFrontierBeatsSerial(t *testing.T) {
	run := func(overlap int) ([]uint64, uint64) {
		spec := plbSpec(930)
		spec.Shards = 1
		spec.PLBBytes = 0 // isolate the overlap axis
		spec.Backend = BackendDRAM
		spec.Overlap = overlap
		var leaves []uint64
		spec.OnPathAccess = func(_, level int, leaf uint64) {
			if level == 0 {
				leaves = append(leaves, leaf)
			}
		}
		c, err := Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(931))
		for i := 0; i < 400; i++ {
			if err := c.Write(rng.Uint64()%spec.Blocks, make([]byte, 16)); err != nil {
				t.Fatal(err)
			}
		}
		ts, ok := c.TimingStats()
		if !ok {
			t.Fatal("timed client reported no timing stats")
		}
		return leaves, ts.Cycles
	}
	serialLeaves, serialCycles := run(0)
	overlapLeaves, overlapCycles := run(4)
	if len(serialLeaves) != len(overlapLeaves) {
		t.Fatalf("leaf counts diverge: serial %d overlap %d", len(serialLeaves), len(overlapLeaves))
	}
	for i := range serialLeaves {
		if serialLeaves[i] != overlapLeaves[i] {
			t.Fatalf("leaf sequence diverges at %d: overlap scheduling perturbed the protocol", i)
		}
	}
	if overlapCycles >= serialCycles {
		t.Errorf("overlap frontier %d not earlier than serial %d", overlapCycles, serialCycles)
	}
}

// TestPLBOverlapSpecValidation pins the inert-knob rejections of the new
// axes: every acceleration knob must be rejected on a construction where
// it would silently change nothing.
func TestPLBOverlapSpecValidation(t *testing.T) {
	base := func() Spec {
		return Spec{
			Blocks: 256, BlockSize: 16,
			PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 128,
			Encryption: EncryptNone,
			Rand:       rand.New(rand.NewSource(940)),
		}
	}
	bad := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"plb-on-flat", func(s *Spec) {
			s.PosMap = PosMapOnChip
			s.PosBlockSize, s.OnChipPosMapMax = 0, 0
			s.PLBBytes = 1024
		}},
		{"constant-shape-on-flat", func(s *Spec) {
			s.PosMap = PosMapOnChip
			s.PosBlockSize, s.OnChipPosMapMax = 0, 0
			s.PLBConstantShape = true
		}},
		{"overlap-on-flat", func(s *Spec) {
			s.PosMap = PosMapOnChip
			s.PosBlockSize, s.OnChipPosMapMax = 0, 0
			s.Overlap = 2
		}},
		{"constant-shape-without-plb", func(s *Spec) { s.PLBConstantShape = true }},
		{"overlap-negative", func(s *Spec) { s.Backend = BackendDRAM; s.Overlap = -1 }},
		{"overlap-on-mem", func(s *Spec) { s.Overlap = 2 }},
		{"overlap-with-serialize", func(s *Spec) {
			s.Backend = BackendDRAM
			s.DRAMSerialize = true
			s.Overlap = 2
		}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			tc.mutate(&spec)
			if _, err := Open(spec); err == nil {
				t.Error("inert/contradictory knob accepted")
			}
		})
	}
	good := base()
	good.Backend = BackendDRAM
	good.PLBBytes = 1024
	good.PLBConstantShape = true
	good.Overlap = 4
	c, err := Open(good)
	if err != nil {
		t.Fatalf("full acceleration spec rejected: %v", err)
	}
	if err := c.Write(1, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if c.OnChipBytes() == 0 {
		t.Error("no on-chip provision reported")
	}
	c.Close()
}

// TestPLBInertOnOneORAMChain: a PLB caches position-map ORAM lookups, so
// on a recursive spec whose map already fits on chip — a chain of one —
// it would cache nothing. Chain length is known only after sizing, so the
// engine builder, not the rule table, rejects it: through every
// constructor, naming the knob that decides, and closing the tree file it
// had already opened. The same PLB is live once the cap forces a chain.
func TestPLBInertOnOneORAMChain(t *testing.T) {
	spec := Spec{Blocks: 64, BlockSize: 8, PLBBytes: 1024, PLBConstantShape: true,
		Backend: BackendFile, Dir: t.TempDir()}
	recursive := spec
	recursive.PosMap = PosMapRecursive
	for name, build := range map[string]func() (Client, error){
		"New":  func() (Client, error) { return New(recursive) },
		"Open": func() (Client, error) { return Open(recursive) },
	} {
		before := openFDs(t)
		c, err := build()
		if err == nil {
			c.Close()
			t.Errorf("%s built a PLB in front of no position-map ORAM", name)
			continue
		}
		if !strings.Contains(err.Error(), "PLBBytes") || !strings.Contains(err.Error(), "OnChipPosMapMax") {
			t.Errorf("%s: %v; want the message to name PLBBytes and OnChipPosMapMax", name, err)
		}
		if after := openFDs(t); after != before {
			t.Errorf("%s: %d descriptors open after the rejection, %d before", name, after, before)
		}
	}
	recursive.OnChipPosMapMax = 64
	h, err := New(recursive)
	if err != nil {
		t.Fatalf("the same PLB on a real chain: %v", err)
	}
	defer h.Close()
	if h.NumORAMs() < 2 || h.PLBOnChipBytes() == 0 {
		t.Errorf("OnChipPosMapMax 64: %d ORAMs, %d PLB bytes; want a chain with a live PLB", h.NumORAMs(), h.PLBOnChipBytes())
	}
}
