package hierarchy

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// Tests for the position-map lookaside cache (Section 3.3.3). All named
// TestPLB* for the CI `-run 'PLB|Overlap'` shard.

// plbConfig is testConfig plus a PLB; the 256B on-chip bound forces a
// 3+-level chain so the cache actually fronts ORAM-backed interfaces.
func plbConfig(seed int64, plbBytes uint64) Config {
	cfg := testConfig(seed)
	cfg.PLBBytes = plbBytes
	return cfg
}

func TestPLBSizing(t *testing.T) {
	if newPLB(0) != nil {
		t.Error("zero budget built a cache")
	}
	for _, budget := range []uint64{1, 47, 48, 100, 1 << 10, 1 << 16} {
		c := newPLB(budget)
		if c.Cap() < plbWays {
			t.Errorf("budget %d: %d entries, want at least one full set", budget, c.Cap())
		}
		if sets := c.Cap() / plbWays; sets&(sets-1) != 0 {
			t.Errorf("budget %d: %d sets, want a power of two", budget, sets)
		}
		// Above the one-set minimum the provision must respect the budget.
		if budget >= 2*plbWays*plbEntryBytes && c.sizeBytes() > budget {
			t.Errorf("budget %d: provisioned %dB", budget, c.sizeBytes())
		}
	}
}

// TestPLBHitSkipsChain is the acceleration property: a PLB hit at the
// first interface elides the backing access and every smaller ORAM above
// it, so a re-access of a cached group touches only the data ORAM.
func TestPLBHitSkipsChain(t *testing.T) {
	var realPerOp []int
	real := 0
	cfg := plbConfig(101, 1<<16) // large: no capacity evictions
	cfg.OnPathAccess = func(level int, _ uint64, kind core.AccessKind) {
		if kind == core.KindReal {
			real++
		}
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hn := h.NumORAMs()
	if hn < 3 {
		t.Fatalf("chain depth %d, want >= 3", hn)
	}
	for i := 0; i < 2; i++ {
		real = 0
		if _, err := h.Access(7, core.OpWrite, fill(byte(i), 16)); err != nil {
			t.Fatal(err)
		}
		realPerOp = append(realPerOp, real)
	}
	if realPerOp[0] != hn {
		t.Errorf("cold access touched %d levels, want the full chain %d", realPerOp[0], hn)
	}
	if realPerOp[1] != 1 {
		t.Errorf("cached re-access touched %d levels, want 1 (data ORAM only)", realPerOp[1])
	}
	st := h.Stats()
	var hits, misses uint64
	for _, s := range st {
		hits += s.PLBHits
		misses += s.PLBMisses
	}
	if hits == 0 || misses == 0 {
		t.Errorf("hits=%d misses=%d, want both nonzero", hits, misses)
	}
	// Chain-length accounting: cold op = hn accesses, warm op = 1.
	if st[0].ChainSamples != 2 || st[0].ChainLevels != uint64(hn)+1 {
		t.Errorf("chain samples=%d levels=%d, want 2 and %d", st[0].ChainSamples, st[0].ChainLevels, hn+1)
	}
	hist := h.ChainLengthHist()
	if hist[1] != 1 || hist[hn] != 1 {
		t.Errorf("hist[1]=%d hist[%d]=%d, want 1 and 1 (hist=%v)", hist[1], hn, hist[hn], hist)
	}
}

// TestPLBDirtyEvictionReadYourWrites hammers a deliberately tiny cache so
// dirty entries are constantly evicted: every evicted label must be
// written back verbatim, or the blocks those labels name are lost.
func TestPLBDirtyEvictionReadYourWrites(t *testing.T) {
	h, err := New(plbConfig(102, 48)) // minimum cache: one set per interface
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(103))
	shadow := map[uint64][]byte{}
	for i := 0; i < 1500; i++ {
		addr := rng.Uint64() % 4096
		if rng.Intn(2) == 0 {
			d := fill(byte(rng.Intn(256)), 16)
			if _, err := h.Access(addr, core.OpWrite, d); err != nil {
				t.Fatal(err)
			}
			shadow[addr] = d
		} else {
			got, err := h.Access(addr, core.OpRead, nil)
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
	var wb uint64
	for _, s := range h.Stats() {
		wb += s.PLBWriteBacks
	}
	if wb == 0 {
		t.Error("tiny cache under a wide workload evicted no dirty entries; the write-back path went untested")
	}
}

// TestPLBFlushWriteBackAndInvalidate: Flush must write every dirty cached
// label back and leave the caches cold, so the backing trees are
// self-contained and logical content survives.
func TestPLBFlushWriteBackAndInvalidate(t *testing.T) {
	h, err := New(plbConfig(104, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(105))
	shadow := map[uint64]byte{}
	for i := 0; i < 400; i++ {
		addr := rng.Uint64() % 4096
		b := byte(rng.Intn(256))
		if _, err := h.Access(addr, core.OpWrite, fill(b, 16)); err != nil {
			t.Fatal(err)
		}
		shadow[addr] = b
	}
	dirtyBefore := 0
	for _, m := range h.posMaps {
		dirtyBefore += len(m.plb.AppendDirty(nil))
	}
	if dirtyBefore == 0 {
		t.Fatal("workload left no dirty PLB entries; flush has nothing to prove")
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, m := range h.posMaps {
		if d := m.plb.AppendDirty(nil); len(d) != 0 {
			t.Errorf("interface %d: %d dirty entries survived Flush", i, len(d))
		}
		if n := m.plb.Len(); n != 0 {
			t.Errorf("interface %d: %d entries survived invalidation", i, n)
		}
	}
	var wb uint64
	for _, s := range h.Stats() {
		wb += s.PLBWriteBacks
	}
	if wb < uint64(dirtyBefore) {
		t.Errorf("write-backs %d < dirty entries %d", wb, dirtyBefore)
	}
	for addr, b := range shadow {
		got, err := h.Access(addr, core.OpRead, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != b {
			t.Fatalf("post-flush addr %d: got %d want %d", addr, got[0], b)
		}
	}
}

// TestPLBConstantShapeFullChain pins the oblivious mode: with
// PLBConstantShape every operation touches every level exactly once
// (real or padding), in the same smallest-first wire order as an uncached
// chain, and the chain-length statistic is pinned at H.
func TestPLBConstantShapeFullChain(t *testing.T) {
	type touch struct {
		level int
		kind  core.AccessKind
	}
	var ops [][]touch
	var cur []touch
	cfg := plbConfig(106, 1<<16)
	cfg.PLBConstantShape = true
	cfg.OnPathAccess = func(level int, _ uint64, kind core.AccessKind) {
		if kind != core.KindDummy { // background eviction is orthogonal
			cur = append(cur, touch{level, kind})
		}
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hn := h.NumORAMs()
	rng := rand.New(rand.NewSource(107))
	for i := 0; i < 300; i++ {
		cur = nil
		if _, err := h.Access(rng.Uint64()%64, core.OpWrite, fill(byte(i), 16)); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, cur)
	}
	var hits uint64
	for _, s := range h.Stats() {
		hits += s.PLBHits
	}
	if hits == 0 {
		t.Fatal("narrow workload produced no PLB hits; constant shape went unexercised")
	}
	for i, op := range ops {
		if len(op) != hn {
			t.Fatalf("op %d touched %d levels, want exactly %d: %+v", i, len(op), hn, op)
		}
		for j, tc := range op {
			if want := hn - 1 - j; tc.level != want {
				t.Fatalf("op %d touch %d hit level %d, want %d (smallest first)", i, j, tc.level, want)
			}
		}
	}
	st := h.Stats()
	if st[0].ChainSamples != 300 || st[0].ChainLevels != uint64(300*hn) {
		t.Errorf("chain samples=%d levels=%d, want 300 and %d (pinned at H)",
			st[0].ChainSamples, st[0].ChainLevels, 300*hn)
	}
	if h.ChainLengthHist()[hn] != 300 {
		t.Errorf("hist[%d]=%d, want all 300 ops", hn, h.ChainLengthHist()[hn])
	}
}

// TestPLBStatsPlumbing pins the counter overlay and reset semantics:
// hierarchy Stats attribute each cache to its backing level, ResetStats
// clears counters but keeps cached labels (protocol state).
func TestPLBStatsPlumbing(t *testing.T) {
	h, err := New(plbConfig(108, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	if h.PLBOnChipBytes() == 0 {
		t.Error("provisioned PLB reports no on-chip bytes")
	}
	for i := 0; i < 50; i++ {
		if _, err := h.Access(uint64(i)%8, core.OpWrite, fill(1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if st[0].PLBHits != 0 || st[0].PLBMisses != 0 {
		t.Error("data level carries PLB counters; they belong to backing levels")
	}
	for i, m := range h.posMaps {
		s := st[m.level+1]
		if hits, misses := m.plb.Stats(); s.PLBHits != hits || s.PLBMisses != misses || s.PLBWriteBacks != m.plb.writeBacks {
			t.Errorf("interface %d counters not overlaid on level %d: %+v", i, m.level+1, s)
		}
	}
	hitsBefore := uint64(0)
	for _, m := range h.posMaps {
		hits, _ := m.plb.Stats()
		hitsBefore += hits
	}
	if hitsBefore == 0 {
		t.Fatal("narrow workload produced no hits")
	}
	h.ResetStats()
	st = h.Stats()
	for lvl, s := range st {
		if s.PLBHits != 0 || s.PLBMisses != 0 || s.PLBWriteBacks != 0 ||
			s.ChainLevels != 0 || s.ChainSamples != 0 {
			t.Errorf("level %d counters survived ResetStats: %+v", lvl, s)
		}
	}
	for _, n := range h.ChainLengthHist() {
		if n != 0 {
			t.Error("chain histogram survived ResetStats")
		}
	}
	// Cached labels must survive: the next re-access still hits.
	if _, err := h.Access(3, core.OpRead, nil); err != nil {
		t.Fatal(err)
	}
	var hitsAfter uint64
	for _, m := range h.posMaps {
		hits, _ := m.plb.Stats()
		hitsAfter += hits
	}
	if hitsAfter == 0 {
		t.Error("ResetStats dropped cached labels; it must only clear counters")
	}
}

// TestPLBConstantShapeRequiresCache pins the config validation.
func TestPLBConstantShapeRequiresCache(t *testing.T) {
	cfg := testConfig(109)
	cfg.PLBConstantShape = true
	if _, err := New(cfg); err == nil {
		t.Error("PLBConstantShape without PLBBytes accepted")
	}
}
