package hierarchy

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func testConfig(seed int64) Config {
	return Config{
		Blocks:             4096,
		DataBlockBytes:     16,
		DataZ:              4,
		PosZ:               4,
		PosBlockBytes:      16, // 4 labels per block
		OnChipPosMapMax:    256,
		StashCapacity:      120,
		BackgroundEviction: true,
		Leaves:             core.NewMathLeafSource(rand.New(rand.NewSource(seed))),
	}
}

func fill(b byte, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestPlanLevelsShrinks(t *testing.T) {
	h, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	layout := h.Layout()
	if len(layout) < 3 {
		t.Fatalf("expected a deep chain for a 256B on-chip limit, got %d ORAMs", len(layout))
	}
	for i := 1; i < len(layout); i++ {
		if layout[i].Blocks >= layout[i-1].Blocks {
			t.Errorf("level %d (%d blocks) did not shrink from %d", i, layout[i].Blocks, layout[i-1].Blocks)
		}
		if layout[i].BlockBytes != 16 {
			t.Errorf("posmap level %d block size %d", i, layout[i].BlockBytes)
		}
	}
	if got := h.OnChipPosMapBytes(); got > 256 {
		t.Errorf("on-chip map %dB exceeds limit", got)
	}
	if h.NumORAMs() != len(layout) {
		t.Errorf("NumORAMs=%d layout=%d", h.NumORAMs(), len(layout))
	}
}

func TestSingleLevelWhenMapFits(t *testing.T) {
	cfg := testConfig(2)
	cfg.OnChipPosMapMax = 1 << 20 // everything fits on chip
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumORAMs() != 1 {
		t.Errorf("NumORAMs=%d want 1", h.NumORAMs())
	}
}

func TestValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Blocks = 0 },
		func(c *Config) { c.Leaves = nil },
		func(c *Config) { c.DataZ = 0 },
		func(c *Config) { c.PosZ = 0 },
		func(c *Config) { c.PosBlockBytes = 3 },
		func(c *Config) { c.StashCapacity = 5 }, // below Z(L+1)
	}
	for i, mutate := range bad {
		cfg := testConfig(3)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStoreFactoryErrorPropagates(t *testing.T) {
	cfg := testConfig(4)
	cfg.NewStore = func(level int, _, _, _ int) (core.PathStore, error) {
		if level == 1 {
			return nil, fmt.Errorf("boom")
		}
		return MemStoreFactory(level, 0, 1, 1)
	}
	if _, err := New(cfg); err == nil {
		t.Error("factory error swallowed")
	}
}

func TestReadYourWrites(t *testing.T) {
	h, err := New(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	shadow := map[uint64][]byte{}
	for i := 0; i < 1200; i++ {
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
}

func TestUpdateThroughHierarchy(t *testing.T) {
	h, err := New(testConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := h.Update(99, func(d []byte) { d[3]++ }); err != nil {
			t.Fatal(err)
		}
	}
	got, err := h.Access(99, core.OpRead, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[3] != 10 {
		t.Errorf("counter=%d want 10", got[3])
	}
}

func TestExclusiveLoadStore(t *testing.T) {
	cfg := testConfig(7)
	cfg.SuperBlock = 2
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Access(10, core.OpWrite, fill(1, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Access(11, core.OpWrite, fill(2, 16)); err != nil {
		t.Fatal(err)
	}
	data, found, group, err := h.Load(10)
	if err != nil {
		t.Fatal(err)
	}
	if !found || !bytes.Equal(data, fill(1, 16)) {
		t.Fatalf("Load found=%v data=% x", found, data)
	}
	if len(group) != 1 || group[0].Addr != 11 {
		t.Fatalf("super block sibling not returned: %+v", group)
	}
	// Store both back without any path access in any ORAM.
	var paths int
	cfgHook := func(level int, leaf uint64, kind core.AccessKind) { paths++ }
	_ = cfgHook // hooks are fixed at construction; count via stats instead
	before := h.Stats()
	if err := h.Store(10, fill(3, 16)); err != nil {
		t.Fatal(err)
	}
	if err := h.Store(11, group[0].Data); err != nil {
		t.Fatal(err)
	}
	after := h.Stats()
	for lvl := range after {
		if after[lvl].RealAccesses != before[lvl].RealAccesses {
			t.Errorf("level %d performed a real access during Store", lvl)
		}
	}
	got, err := h.Access(10, core.OpRead, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(3, 16)) {
		t.Errorf("after Store read % x", got)
	}
}

func TestAccessOrderSmallestFirst(t *testing.T) {
	// Section 2.3 / Figure 5: ORAM_H is accessed first, the data ORAM
	// last. Track the order of per-level path accesses for one data
	// access.
	var order []int
	cfg := testConfig(8)
	cfg.OnPathAccess = func(level int, _ uint64, kind core.AccessKind) {
		if kind == core.KindReal {
			order = append(order, level)
		}
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hn := h.NumORAMs()
	if hn < 3 {
		t.Fatalf("want a deep hierarchy, got %d", hn)
	}
	order = order[:0]
	if _, err := h.Access(123, core.OpRead, nil); err != nil {
		t.Fatal(err)
	}
	if len(order) != hn {
		t.Fatalf("one access touched %d ORAMs, want %d", len(order), hn)
	}
	for i, lvl := range order {
		if want := hn - 1 - i; lvl != want {
			t.Errorf("access %d hit level %d, want %d (smallest first)", i, lvl, want)
		}
	}
}

func TestCoordinatedBackgroundEviction(t *testing.T) {
	cfg := testConfig(9)
	cfg.StashCapacity = 110 // tight enough to force dummy rounds
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 2500; i++ {
		if _, err := h.Access(rng.Uint64()%4096, core.OpWrite, fill(byte(i), 16)); err != nil {
			t.Fatal(err)
		}
		for lvl := 0; lvl < h.NumORAMs(); lvl++ {
			if o := h.Level(lvl); o.StashSize() > o.Params().EvictionThreshold() {
				t.Fatalf("level %d above threshold after drain", lvl)
			}
		}
	}
	if h.DummyRounds() == 0 {
		t.Skip("config never needed dummy rounds; tighten the stash")
	}
	// A dummy round issues exactly one dummy access per level.
	for lvl, s := range h.Stats() {
		if s.DummyAccesses != h.DummyRounds() {
			t.Errorf("level %d dummy accesses %d != rounds %d", lvl, s.DummyAccesses, h.DummyRounds())
		}
	}
	if h.DummyPerReal() <= 0 {
		t.Error("DummyPerReal should be positive")
	}
}

func TestDeepChainCorrectness(t *testing.T) {
	// Force a 4+-deep chain and hammer it.
	cfg := Config{
		Blocks:             1 << 14,
		DataBlockBytes:     8,
		DataZ:              4,
		PosZ:               4,
		PosBlockBytes:      8, // 2 labels per block -> slow shrink -> deep chain
		OnChipPosMapMax:    64,
		StashCapacity:      150,
		BackgroundEviction: true,
		Leaves:             core.NewMathLeafSource(rand.New(rand.NewSource(10))),
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumORAMs() < 4 {
		t.Fatalf("chain depth %d, want >= 4", h.NumORAMs())
	}
	rng := rand.New(rand.NewSource(11))
	shadow := map[uint64]byte{}
	for i := 0; i < 800; i++ {
		addr := rng.Uint64() % cfg.Blocks
		if rng.Intn(2) == 0 {
			b := byte(rng.Intn(256))
			if _, err := h.Access(addr, core.OpWrite, fill(b, 8)); err != nil {
				t.Fatal(err)
			}
			shadow[addr] = b
		} else {
			got, err := h.Access(addr, core.OpRead, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := byte(0)
			if b, ok := shadow[addr]; ok {
				want = b
			}
			if got[0] != want {
				t.Fatalf("step %d addr %d: got %d want %d", i, addr, got[0], want)
			}
		}
	}
}

func TestStatsAndLayoutAccessors(t *testing.T) {
	h, err := New(testConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Access(0, core.OpWrite, fill(1, 16)); err != nil {
		t.Fatal(err)
	}
	stats := h.Stats()
	if len(stats) != h.NumORAMs() {
		t.Fatalf("stats length %d", len(stats))
	}
	for lvl, s := range stats {
		if s.RealAccesses != 1 {
			t.Errorf("level %d real accesses %d want 1", lvl, s.RealAccesses)
		}
	}
	// Layout must be a copy.
	l := h.Layout()
	l[0].Z = 99
	if h.Layout()[0].Z == 99 {
		t.Error("Layout returned internal state")
	}
}

func TestMetadataOnlyDataORAM(t *testing.T) {
	cfg := testConfig(13)
	cfg.DataBlockBytes = 0
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 300; i++ {
		if _, err := h.Access(rng.Uint64()%4096, core.OpWrite, nil); err != nil {
			t.Fatal(err)
		}
	}
	if h.Stats()[0].RealAccesses != 300 {
		t.Error("metadata-only hierarchy miscounted accesses")
	}
}
