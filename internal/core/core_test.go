package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// newTestORAM builds an ORAM over a MemStore with an on-chip position map
// and a deterministic leaf source.
func newTestORAM(t *testing.T, p Params, seed int64) (*ORAM, *MemStore, *OnChipPositionMap) {
	t.Helper()
	store, err := NewMemStore(p.LeafLevel, p.Z, p.BlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	src := NewMathLeafSource(rand.New(rand.NewSource(seed)))
	pos, err := NewOnChipPositionMap(p.Groups(), 1<<uint(p.LeafLevel), src)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(p, store, pos, src)
	if err != nil {
		t.Fatal(err)
	}
	return o, store, pos
}

func smallParams() Params {
	return Params{
		LeafLevel:          6,
		Z:                  4,
		BlockBytes:         16,
		Blocks:             128,
		StashCapacity:      100,
		BackgroundEviction: true,
	}
}

func blockOf(b byte, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestReadNeverWritten(t *testing.T) {
	p := smallParams()
	p.FreshFill = 0xAB
	o, _, _ := newTestORAM(t, p, 1)
	got, err := o.Access(7, OpRead, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blockOf(0xAB, 16)) {
		t.Errorf("fresh read = % x, want fill 0xAB", got)
	}
	// A fresh read must not materialize the block.
	if o.Stats().BlocksInORAM != 0 {
		t.Errorf("fresh read inserted a block")
	}
}

func TestWriteThenRead(t *testing.T) {
	o, _, _ := newTestORAM(t, smallParams(), 2)
	want := blockOf(0x5C, 16)
	if _, err := o.Access(42, OpWrite, want); err != nil {
		t.Fatal(err)
	}
	got, err := o.Access(42, OpRead, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read back % x want % x", got, want)
	}
	if o.Stats().RealAccesses != 2 {
		t.Errorf("RealAccesses=%d want 2", o.Stats().RealAccesses)
	}
}

func TestOverwrite(t *testing.T) {
	o, _, _ := newTestORAM(t, smallParams(), 3)
	for round := byte(0); round < 5; round++ {
		if _, err := o.Access(9, OpWrite, blockOf(round, 16)); err != nil {
			t.Fatal(err)
		}
		got, err := o.Access(9, OpRead, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blockOf(round, 16)) {
			t.Fatalf("round %d: read % x", round, got)
		}
	}
	if n := o.Stats().BlocksInORAM; n != 1 {
		t.Errorf("BlocksInORAM=%d want 1 (no duplicates on overwrite)", n)
	}
}

func TestReadIsACopy(t *testing.T) {
	o, _, _ := newTestORAM(t, smallParams(), 4)
	if _, err := o.Access(3, OpWrite, blockOf(1, 16)); err != nil {
		t.Fatal(err)
	}
	got, _ := o.Access(3, OpRead, nil)
	got[0] = 0xFF // must not corrupt the stored block
	again, _ := o.Access(3, OpRead, nil)
	if !bytes.Equal(again, blockOf(1, 16)) {
		t.Error("mutating a returned read buffer corrupted the ORAM")
	}
}

func TestWriteCopiesCallerBuffer(t *testing.T) {
	o, _, _ := newTestORAM(t, smallParams(), 5)
	buf := blockOf(7, 16)
	if _, err := o.Access(3, OpWrite, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 0xEE
	got, _ := o.Access(3, OpRead, nil)
	if got[0] != 7 {
		t.Error("ORAM aliased the caller's write buffer")
	}
}

func TestWriteWrongSize(t *testing.T) {
	o, _, _ := newTestORAM(t, smallParams(), 6)
	if _, err := o.Access(0, OpWrite, make([]byte, 15)); err == nil {
		t.Error("short write accepted")
	}
	if _, err := o.Access(0, OpWrite, nil); err == nil {
		t.Error("nil write accepted on payload ORAM")
	}
}

func TestAddressOutOfRange(t *testing.T) {
	o, _, _ := newTestORAM(t, smallParams(), 7)
	if _, err := o.Access(128, OpRead, nil); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := o.Update(1<<40, func([]byte) {}); err == nil {
		t.Error("out-of-range update accepted")
	}
	if _, _, _, err := o.Load(999); err == nil {
		t.Error("out-of-range load accepted")
	}
	if err := o.Store(999, nil); err == nil {
		t.Error("out-of-range store accepted")
	}
}

func TestUpdateReadModifyWrite(t *testing.T) {
	o, _, _ := newTestORAM(t, smallParams(), 8)
	if err := o.Update(5, func(d []byte) { d[0] = 10 }); err != nil {
		t.Fatal(err)
	}
	if err := o.Update(5, func(d []byte) { d[0] += 32 }); err != nil {
		t.Fatal(err)
	}
	got, _ := o.Access(5, OpRead, nil)
	if got[0] != 42 {
		t.Errorf("RMW result %d want 42", got[0])
	}
}

func TestUpdateFreshFill(t *testing.T) {
	p := smallParams()
	p.FreshFill = 0xFF
	o, _, _ := newTestORAM(t, p, 9)
	var seen []byte
	if err := o.Update(1, func(d []byte) { seen = append([]byte(nil), d...) }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seen, blockOf(0xFF, 16)) {
		t.Errorf("fresh Update saw % x want all-0xFF", seen)
	}
}

func TestUpdateRequiresPayloads(t *testing.T) {
	p := smallParams()
	p.BlockBytes = 0
	o, _, _ := newTestORAM(t, p, 10)
	if err := o.Update(0, func([]byte) {}); err == nil {
		t.Error("Update on metadata-only ORAM accepted")
	}
}

func TestMetadataOnlyMode(t *testing.T) {
	p := smallParams()
	p.BlockBytes = 0
	o, _, _ := newTestORAM(t, p, 11)
	if _, err := o.Access(1, OpWrite, nil); err != nil {
		t.Fatal(err)
	}
	got, err := o.Access(1, OpRead, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("metadata-only read returned data %v", got)
	}
	if o.Stats().BlocksInORAM != 1 {
		t.Errorf("metadata block not tracked")
	}
}

func TestExclusiveLoadStore(t *testing.T) {
	o, store, _ := newTestORAM(t, smallParams(), 12)
	if _, err := o.Access(20, OpWrite, blockOf(9, 16)); err != nil {
		t.Fatal(err)
	}
	data, found, group, err := o.Load(20)
	if err != nil {
		t.Fatal(err)
	}
	if !found || !bytes.Equal(data, blockOf(9, 16)) {
		t.Fatalf("Load found=%v data=% x", found, data)
	}
	if len(group) != 0 {
		t.Errorf("no super blocks configured but got %d group members", len(group))
	}
	// Exclusivity: the block must be gone from tree and stash.
	if store.CountBlocks()+uint64(o.StashSize()) != 0 {
		t.Errorf("block still resident after Load (tree=%d stash=%d)",
			store.CountBlocks(), o.StashSize())
	}
	if !o.CheckedOut(20) {
		t.Error("loaded block not marked checked out")
	}
	// Double load must fail.
	if _, _, _, err := o.Load(20); err == nil {
		t.Error("double Load accepted")
	}
	// Access while checked out must fail.
	if _, err := o.Access(20, OpRead, nil); err == nil {
		t.Error("Access of checked-out block accepted")
	}
	// Store it back modified; then read through the oblivious interface.
	if err := o.Store(20, blockOf(10, 16)); err != nil {
		t.Fatal(err)
	}
	if o.CheckedOut(20) {
		t.Error("stored block still marked checked out")
	}
	got, _ := o.Access(20, OpRead, nil)
	if !bytes.Equal(got, blockOf(10, 16)) {
		t.Errorf("after Store, read % x want 0x0A fill", got)
	}
}

func TestStoreWithoutLoadRejected(t *testing.T) {
	o, _, _ := newTestORAM(t, smallParams(), 13)
	if err := o.Store(4, blockOf(1, 16)); err == nil {
		t.Error("Store of a block that was never checked out accepted")
	}
}

func TestLoadNeverWritten(t *testing.T) {
	p := smallParams()
	p.FreshFill = 0x11
	o, _, _ := newTestORAM(t, p, 14)
	data, found, _, err := o.Load(33)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("never-written block reported found")
	}
	if !bytes.Equal(data, blockOf(0x11, 16)) {
		t.Errorf("fresh Load data % x", data)
	}
	// The processor now owns it; Store must work.
	if err := o.Store(33, blockOf(0x22, 16)); err != nil {
		t.Fatal(err)
	}
	got, _ := o.Access(33, OpRead, nil)
	if !bytes.Equal(got, blockOf(0x22, 16)) {
		t.Errorf("after fresh Load+Store read % x", got)
	}
}

func TestStoreDoesNotAccessPath(t *testing.T) {
	// Section 3.3.1: returning an evicted line costs no path access.
	o, _, _ := newTestORAM(t, smallParams(), 15)
	if _, err := o.Access(2, OpWrite, blockOf(1, 16)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := o.Load(2); err != nil {
		t.Fatal(err)
	}
	paths := 0
	o.p.OnPathAccess = func(uint64, AccessKind) { paths++ }
	if err := o.Store(2, blockOf(2, 16)); err != nil {
		t.Fatal(err)
	}
	if paths != 0 {
		t.Errorf("Store touched %d paths, want 0", paths)
	}
	if o.Stats().Stores != 1 {
		t.Errorf("Stores=%d want 1", o.Stats().Stores)
	}
}

func TestDummyAccessNeverGrowsStash(t *testing.T) {
	p := smallParams()
	p.BackgroundEviction = false    // drive dummies by hand
	p.StashCapacity = int(p.Blocks) // holds every block: never overflows
	o, _, _ := newTestORAM(t, p, 16)
	for i := uint64(0); i < 64; i++ {
		if _, err := o.Access(i, OpWrite, blockOf(byte(i), 16)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		before := o.StashSize()
		if err := o.DummyAccess(); err != nil {
			t.Fatal(err)
		}
		if after := o.StashSize(); after > before {
			t.Fatalf("dummy access grew stash %d -> %d", before, after)
		}
	}
	if o.Stats().DummyAccesses != 200 {
		t.Errorf("DummyAccesses=%d want 200", o.Stats().DummyAccesses)
	}
}

func TestBackgroundEvictionBoundsStash(t *testing.T) {
	p := Params{
		LeafLevel: 5, Z: 1, BlockBytes: 0, Blocks: 48,
		StashCapacity:      1*(5+1) + 8, // threshold 8
		BackgroundEviction: true,
	}
	o, _, _ := newTestORAM(t, p, 17)
	thr := p.EvictionThreshold()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		if _, err := o.Access(rng.Uint64()%p.Blocks, OpWrite, nil); err != nil {
			t.Fatal(err)
		}
		if o.StashSize() > thr {
			t.Fatalf("stash %d above threshold %d after drain", o.StashSize(), thr)
		}
	}
	if o.Stats().DummyAccesses == 0 {
		t.Error("this aggressive config should have needed dummy accesses")
	}
	if o.Stats().StashPeak > p.StashCapacity {
		t.Errorf("stash peak %d exceeded capacity %d", o.Stats().StashPeak, p.StashCapacity)
	}
}

func TestStashOverflowFailsWithoutBackgroundEviction(t *testing.T) {
	p := Params{
		LeafLevel: 5, Z: 1, BlockBytes: 0, Blocks: 48,
		StashCapacity:      8,
		BackgroundEviction: false,
	}
	o, _, _ := newTestORAM(t, p, 18)
	rng := rand.New(rand.NewSource(100))
	var sawOverflow bool
	for i := 0; i < 5000; i++ {
		if _, err := o.Access(rng.Uint64()%p.Blocks, OpWrite, nil); err != nil {
			if errors.Is(err, ErrStashOverflow) {
				sawOverflow = true
				break
			}
			t.Fatal(err)
		}
	}
	if !sawOverflow {
		t.Error("Z=1 with an 8-block stash should overflow (paper Fig. 3)")
	}
}

func TestLivelockGuard(t *testing.T) {
	// Force the livelock of Section 3.1.1: a constant leaf source maps
	// every block to leaf 0, so path 0 fills up and dummies cannot drain
	// the stash. The guard must trip instead of hanging.
	p := Params{
		LeafLevel: 1, Z: 1, BlockBytes: 0, Blocks: 16,
		StashCapacity:      1*(1+1) + 1, // threshold 1
		BackgroundEviction: true,
	}
	store, _ := NewMemStore(p.LeafLevel, p.Z, p.BlockBytes)
	src := constantLeafSource{}
	pos, _ := NewOnChipPositionMap(p.Groups(), 1<<uint(p.LeafLevel), src)
	o, err := New(p, store, pos, src)
	if err != nil {
		t.Fatal(err)
	}
	var last error
	for i := uint64(0); i < 8; i++ {
		if _, last = o.Access(i, OpWrite, nil); last != nil {
			break
		}
	}
	if !errors.Is(last, ErrLivelock) {
		t.Errorf("expected ErrLivelock, got %v", last)
	}
}

type constantLeafSource struct{}

func (constantLeafSource) Leaf(uint64) uint64 { return 0 }

func TestOnPathAccessKinds(t *testing.T) {
	p := Params{
		LeafLevel: 5, Z: 1, BlockBytes: 0, Blocks: 32,
		StashCapacity:      1*(5+1) + 6,
		BackgroundEviction: true,
	}
	counts := map[AccessKind]int{}
	p.OnPathAccess = func(_ uint64, k AccessKind) { counts[k]++ }
	o, _, _ := newTestORAM(t, p, 20)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1000; i++ {
		if _, err := o.Access(rng.Uint64()%p.Blocks, OpWrite, nil); err != nil {
			t.Fatal(err)
		}
	}
	if counts[KindReal] != 1000 {
		t.Errorf("real paths=%d want 1000", counts[KindReal])
	}
	if counts[KindDummy] == 0 {
		t.Error("expected some dummy paths in this tight config")
	}
	if uint64(counts[KindDummy]) != o.Stats().DummyAccesses {
		t.Errorf("hook dummy count %d != stats %d", counts[KindDummy], o.Stats().DummyAccesses)
	}
}

// TestPaddingAccess checks the scheduler-padding dummy: it performs a path
// access observers see as KindPadding, counts separately from background
// eviction, and never grows the stash.
func TestPaddingAccess(t *testing.T) {
	p := Params{LeafLevel: 5, Z: 2, Blocks: 64, StashCapacity: 50, BackgroundEviction: true}
	counts := map[AccessKind]int{}
	p.OnPathAccess = func(_ uint64, k AccessKind) { counts[k]++ }
	o, _, _ := newTestORAM(t, p, 22)
	for i := uint64(0); i < 32; i++ {
		if _, err := o.Access(i, OpWrite, nil); err != nil {
			t.Fatal(err)
		}
	}
	occupancy := o.StashSize()
	for i := 0; i < 100; i++ {
		if err := o.PaddingAccess(); err != nil {
			t.Fatal(err)
		}
		if o.StashSize() > occupancy {
			t.Fatalf("padding access %d grew the stash (%d -> %d)", i, occupancy, o.StashSize())
		}
		occupancy = o.StashSize()
	}
	st := o.Stats()
	if st.PaddingAccesses != 100 {
		t.Errorf("PaddingAccesses = %d, want 100", st.PaddingAccesses)
	}
	if counts[KindPadding] != 100 {
		t.Errorf("hook padding count = %d, want 100", counts[KindPadding])
	}
	if st.PaddingPerReal() != 100.0/32 {
		t.Errorf("PaddingPerReal = %v, want %v", st.PaddingPerReal(), 100.0/32)
	}
	o.ResetStats()
	if o.Stats().PaddingAccesses != 0 {
		t.Error("ResetStats kept PaddingAccesses")
	}
}

func TestValidate(t *testing.T) {
	base := smallParams()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	mut := func(f func(*Params)) Params { p := base; f(&p); return p }
	bad := []Params{
		mut(func(p *Params) { p.LeafLevel = -1 }),
		mut(func(p *Params) { p.LeafLevel = 31 }),
		mut(func(p *Params) { p.Z = 0 }),
		mut(func(p *Params) { p.Blocks = 0 }),
		mut(func(p *Params) { p.StashCapacity = -1 }),
		mut(func(p *Params) { p.SuperBlock = -1 }),
		mut(func(p *Params) { p.StashCapacity = 0 }),
		mut(func(p *Params) { p.StashCapacity, p.BackgroundEviction = 0, false }), // no unbounded mode
		mut(func(p *Params) { p.StashCapacity = p.Z * (p.LeafLevel + 1) }),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

// TestNewRejectsUnboundedStash: a zero capacity is an error even without
// background eviction. A study that wants a stash nothing evicts from sizes
// it to hold every block, as Figure 3 does.
func TestNewRejectsUnboundedStash(t *testing.T) {
	p := Params{LeafLevel: 4, Z: 2, Blocks: 16}
	store, _ := NewMemStore(p.LeafLevel, p.Z, p.BlockBytes)
	src := NewMathLeafSource(rand.New(rand.NewSource(1)))
	pos, _ := NewOnChipPositionMap(p.Groups(), 1<<uint(p.LeafLevel), src)
	if _, err := New(p, store, pos, src); err == nil {
		t.Error("StashCapacity 0 accepted")
	}
}

func TestNewRejectsNilDeps(t *testing.T) {
	p := smallParams()
	store, _ := NewMemStore(p.LeafLevel, p.Z, p.BlockBytes)
	src := NewMathLeafSource(rand.New(rand.NewSource(1)))
	pos, _ := NewOnChipPositionMap(p.Groups(), 1<<uint(p.LeafLevel), src)
	if _, err := New(p, nil, pos, src); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := New(p, store, nil, src); err == nil {
		t.Error("nil posmap accepted")
	}
	if _, err := New(p, store, pos, nil); err == nil {
		t.Error("nil leaf source accepted")
	}
}

func TestParamsHelpers(t *testing.T) {
	p := Params{Blocks: 10, SuperBlock: 4, Z: 2, LeafLevel: 3, StashCapacity: 20}
	if p.GroupSize() != 4 {
		t.Errorf("GroupSize=%d want 4", p.GroupSize())
	}
	if p.Groups() != 3 {
		t.Errorf("Groups=%d want 3", p.Groups())
	}
	if p.EvictionThreshold() != 20-2*4 {
		t.Errorf("threshold=%d want 12", p.EvictionThreshold())
	}
	p.SuperBlock = 0
	if p.GroupSize() != 1 {
		t.Error("SuperBlock=0 should mean size 1")
	}
}

func TestStatsDummyPerReal(t *testing.T) {
	s := Stats{RealAccesses: 4, DummyAccesses: 6}
	if got := s.DummyPerReal(); got != 1.5 {
		t.Errorf("DummyPerReal=%v want 1.5", got)
	}
	if (Stats{}).DummyPerReal() != 0 {
		t.Error("empty stats should report 0")
	}
}

func TestResetStats(t *testing.T) {
	o, _, _ := newTestORAM(t, smallParams(), 22)
	if _, err := o.Access(0, OpWrite, blockOf(1, 16)); err != nil {
		t.Fatal(err)
	}
	o.ResetStats()
	// Counters clear; the BlocksInORAM occupancy gauge survives (one block
	// is still resident — zeroing it would underflow on the next Load).
	if got := o.Stats(); got != (Stats{BlocksInORAM: 1}) {
		t.Errorf("ResetStats left %+v, want only the occupancy gauge", got)
	}
}
