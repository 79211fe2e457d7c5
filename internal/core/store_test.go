package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemStoreEmptyRead(t *testing.T) {
	s, err := NewMemStore(4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadPath(7, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("ReadPath returned %d buckets, want one per level (5)", len(got))
	}
	if n := len(flatSlots(got)); n != 0 {
		t.Errorf("empty tree returned %d blocks", n)
	}
	if s.CountBlocks() != 0 {
		t.Errorf("empty tree counts %d blocks", s.CountBlocks())
	}
}

func TestMemStoreRejectsBadGeometry(t *testing.T) {
	if _, err := NewMemStore(4, 0, 0); err == nil {
		t.Error("Z=0 accepted")
	}
	s, _ := NewMemStore(3, 2, 0)
	if _, err := s.ReadPath(8, nil, nil); err == nil {
		t.Error("out-of-range leaf read accepted")
	}
	if err := s.WritePath(8, make([][]Slot, 4)); err == nil {
		t.Error("out-of-range leaf write accepted")
	}
	if err := s.WritePath(0, make([][]Slot, 3)); err == nil {
		t.Error("wrong bucket count accepted")
	}
	over := make([][]Slot, 4)
	over[0] = []Slot{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	if err := s.WritePath(0, over); err == nil {
		t.Error("overfull bucket accepted")
	}
}

func TestMemStoreWriteReadRoundTrip(t *testing.T) {
	s, _ := NewMemStore(3, 2, 8)
	buckets := make([][]Slot, 4)
	buckets[0] = []Slot{{Addr: 0, Leaf: 5, Data: blockOf(1, 8)}} // address 0 is a valid program address
	buckets[2] = []Slot{{Addr: 7, Leaf: 5, Data: blockOf(2, 8)}, {Addr: 9, Leaf: 4, Data: blockOf(3, 8)}}
	if err := s.WritePath(5, buckets); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadPath(5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(flatSlots(got)); n != 3 {
		t.Fatalf("read %d blocks want 3", n)
	}
	if len(got[0]) != 1 || len(got[2]) != 2 {
		t.Fatalf("per-level shape wrong: %v", got)
	}
	byAddr := map[uint64]Slot{}
	for _, b := range flatSlots(got) {
		byAddr[b.Addr] = b
	}
	if b, ok := byAddr[0]; !ok || b.Leaf != 5 || !bytes.Equal(b.Data, blockOf(1, 8)) {
		t.Errorf("block 0 wrong: %+v", b)
	}
	if b, ok := byAddr[9]; !ok || b.Leaf != 4 || !bytes.Equal(b.Data, blockOf(3, 8)) {
		t.Errorf("block 9 wrong: %+v", b)
	}
	// Reading a disjoint path sees only the shared root bucket.
	// Leaf 5 = 101b; leaf 2 = 010b diverges at the root's children.
	other, err := s.ReadPath(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flat := flatSlots(other); len(flat) != 1 || flat[0].Addr != 0 {
		t.Errorf("disjoint path read %+v, want only root block 0", other)
	}
	// A skip mask suppresses exactly the flagged buckets.
	skipped, err := s.ReadPath(5, []bool{true, false, false, false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped[0]) != 0 || len(skipped[2]) != 2 {
		t.Errorf("skip mask misapplied: %v", skipped)
	}
}

// flatSlots flattens a per-level ReadPath result for shape-agnostic checks.
func flatSlots(buckets [][]Slot) []Slot {
	var out []Slot
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

func TestMemStoreOverwriteClearsOldBlocks(t *testing.T) {
	s, _ := NewMemStore(2, 2, 0)
	b := make([][]Slot, 3)
	b[1] = []Slot{{Addr: 3, Leaf: 1}, {Addr: 4, Leaf: 0}}
	if err := s.WritePath(1, b); err != nil {
		t.Fatal(err)
	}
	if s.CountBlocks() != 2 {
		t.Fatalf("CountBlocks=%d want 2", s.CountBlocks())
	}
	// Rewrite the same path with a single block: the other slot must clear.
	b2 := make([][]Slot, 3)
	b2[1] = []Slot{{Addr: 3, Leaf: 1}}
	if err := s.WritePath(1, b2); err != nil {
		t.Fatal(err)
	}
	if s.CountBlocks() != 1 {
		t.Errorf("CountBlocks=%d want 1 after shrink", s.CountBlocks())
	}
}

func TestMemStoreForEachBlockLevels(t *testing.T) {
	s, _ := NewMemStore(2, 1, 0)
	b := make([][]Slot, 3)
	b[0] = []Slot{{Addr: 1, Leaf: 3}}
	b[2] = []Slot{{Addr: 2, Leaf: 3}}
	if err := s.WritePath(3, b); err != nil {
		t.Fatal(err)
	}
	levels := map[uint64]int{}
	s.ForEachBlock(func(sl Slot, level int, _ uint64) { levels[sl.Addr] = level })
	if levels[1] != 0 || levels[2] != 2 {
		t.Errorf("levels=%v want {1:0, 2:2}", levels)
	}
}

func TestMemStorePathCoverageProperty(t *testing.T) {
	// Property: a block written to the deepest bucket of path p is visible
	// exactly on paths sharing that leaf bucket, i.e. only path p itself.
	s, _ := NewMemStore(5, 1, 0)
	f := func(leafRaw, probeRaw uint8) bool {
		leaf := uint64(leafRaw) % 32
		probe := uint64(probeRaw) % 32
		b := make([][]Slot, 6)
		b[5] = []Slot{{Addr: leaf + 1, Leaf: uint32(leaf)}}
		if err := s.WritePath(leaf, b); err != nil {
			return false
		}
		got, err := s.ReadPath(probe, nil, nil)
		if err != nil {
			return false
		}
		found := false
		for _, bl := range flatSlots(got) {
			if bl.Addr == leaf+1 {
				found = true
			}
		}
		// Clean up for the next iteration.
		if err := s.WritePath(leaf, make([][]Slot, 6)); err != nil {
			return false
		}
		return found == (probe == leaf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Peek returns a group's current leaf without remapping (ok is false if the
// group was never mapped): the tests' window onto the table, which the
// protocol itself reads only through Access.
func (m *OnChipPositionMap) Peek(group uint64) (uint32, bool, error) {
	if group >= uint64(len(m.leaves)) {
		return 0, false, fmt.Errorf("core: position map group %d out of range", group)
	}
	l := m.leaves[group]
	if l == UnassignedLeaf {
		return 0, false, nil
	}
	return l, true, nil
}

func TestOnChipPositionMap(t *testing.T) {
	src := NewMathLeafSource(rand.New(rand.NewSource(8)))
	m, err := NewOnChipPositionMap(10, 64, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Peek(3); ok {
		t.Error("unassigned entry peeked as assigned")
	}
	old, cur, err := m.Access(3)
	if err != nil {
		t.Fatal(err)
	}
	if old >= 64 || cur >= 64 {
		t.Errorf("leaves out of range: old=%d new=%d", old, cur)
	}
	leaf, ok, err := m.Peek(3)
	if err != nil || !ok || leaf != cur {
		t.Errorf("Peek=%d,%v want %d,true", leaf, ok, cur)
	}
	// Next Access must report the previously assigned leaf as old.
	old2, _, _ := m.Access(3)
	if old2 != cur {
		t.Errorf("second Access old=%d want %d", old2, cur)
	}
	if _, _, err := m.Access(10); err == nil {
		t.Error("out-of-range group accepted")
	}
	if _, _, err := m.Peek(10); err == nil {
		t.Error("out-of-range peek accepted")
	}
	if m.SizeBits(20) != 200 {
		t.Errorf("SizeBits=%d want 200", m.SizeBits(20))
	}
}

func TestOnChipPositionMapValidation(t *testing.T) {
	src := NewMathLeafSource(rand.New(rand.NewSource(8)))
	if _, err := NewOnChipPositionMap(0, 64, src); err == nil {
		t.Error("zero groups accepted")
	}
	if _, err := NewOnChipPositionMap(4, 63, src); err == nil {
		t.Error("non-power-of-two leaves accepted")
	}
	if _, err := NewOnChipPositionMap(4, 0, src); err == nil {
		t.Error("zero leaves accepted")
	}
}

func TestLeafSources(t *testing.T) {
	a := NewMathLeafSource(rand.New(rand.NewSource(42)))
	b := NewMathLeafSource(rand.New(rand.NewSource(42)))
	for i := 0; i < 100; i++ {
		if a.Leaf(1024) != b.Leaf(1024) {
			t.Fatal("math leaf source not deterministic for equal seeds")
		}
	}
	c := NewCryptoLeafSource()
	seen := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		v := c.Leaf(1 << 20)
		if v >= 1<<20 {
			t.Fatalf("crypto leaf %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 1900 {
		t.Errorf("crypto leaf source produced only %d distinct values in 2000 draws", len(seen))
	}
}

func TestLeafSourceUniformity(t *testing.T) {
	src := NewMathLeafSource(rand.New(rand.NewSource(12)))
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[src.Leaf(n)]++
	}
	for v, c := range counts {
		if c < draws/n*8/10 || c > draws/n*12/10 {
			t.Errorf("leaf %d drawn %d times, want ~%d", v, c, draws/n)
		}
	}
}

func TestStash(t *testing.T) {
	var s stash
	s.add(1, 0)
	s.add(2, 0)
	s.add(3, 0)
	if s.len() != 3 {
		t.Fatalf("len=%d want 3", s.len())
	}
	if s.find(2) < 0 || s.find(9) >= 0 {
		t.Error("find misbehaves")
	}
	var got []uint64
	s.extractRange(2, 3, func(e Slot) { got = append(got, e.Addr) })
	if len(got) != 1 || got[0] != 2 || s.len() != 2 || s.find(2) >= 0 {
		t.Error("extractRange misbehaves")
	}
	placed := []int{1, 0}
	s.compact(placed)
	if s.len() != 1 {
		t.Errorf("compact left %d entries want 1", s.len())
	}
}
