package core

import (
	"math/rand"
	"testing"
)

// TestEvictionGreedyMaximality verifies the "shuffle" guarantee of Section
// 2.1 step 5: after a path write-back, every block remaining in the stash
// must be blocked by fullness — each bucket it could legally occupy on the
// just-written path holds Z blocks.
func TestEvictionGreedyMaximality(t *testing.T) {
	p := Params{
		LeafLevel: 6, Z: 2, BlockBytes: 0, Blocks: 200,
		StashCapacity: 200, // holds every block: lets the stash accumulate
	}
	var lastLeaf uint64
	p.OnPathAccess = func(leaf uint64, _ AccessKind) { lastLeaf = leaf }
	o, store, _ := newTestORAM(t, p, 777)
	tree := o.Tree()
	rng := rand.New(rand.NewSource(778))

	occupancy := func(leaf uint64) []int {
		counts := make([]int, tree.Levels())
		store.ForEachBlock(func(s Slot, level int, pos uint64) {
			if tree.PathBucket(leaf, level) == tree.FlatIndex(level, pos) {
				counts[level]++
			}
		})
		return counts
	}

	for i := 0; i < 1000; i++ {
		if _, err := o.Access(rng.Uint64()%p.Blocks, OpWrite, nil); err != nil {
			t.Fatal(err)
		}
		if i%50 != 0 {
			continue
		}
		counts := occupancy(lastLeaf)
		for _, e := range o.stash.entries {
			deepest := tree.DeepestLevel(uint64(e.Leaf), lastLeaf)
			for d := 0; d <= deepest; d++ {
				if counts[d] < p.Z {
					t.Fatalf("step %d: stash block %d (leaf %d) could occupy level %d "+
						"of path %d (only %d/%d full) — eviction not maximal",
						i, e.Addr, e.Leaf, d, lastLeaf, counts[d], p.Z)
				}
			}
		}
	}
}

// TestDummyAccessRestoresPath verifies the Section 3.1.1 argument that a
// dummy access can always return every block it read: after a dummy access
// on a freshly stable ORAM, no block that was on the path may remain in
// the stash unless it was displaced by a strictly deeper-eligible block.
func TestDummyAccessNetNonIncreasing(t *testing.T) {
	p := Params{
		LeafLevel: 7, Z: 3, BlockBytes: 0, Blocks: 500,
		StashCapacity: 500,
	}
	o, _, _ := newTestORAM(t, p, 779)
	rng := rand.New(rand.NewSource(780))
	for i := 0; i < 2000; i++ {
		if _, err := o.Access(rng.Uint64()%p.Blocks, OpWrite, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		before := o.StashSize()
		if err := o.DummyAccess(); err != nil {
			t.Fatal(err)
		}
		if o.StashSize() > before {
			t.Fatalf("dummy access %d grew the stash %d -> %d", i, before, o.StashSize())
		}
	}
}

// TestEvictionPrefersDeepPlacement checks that on an otherwise empty tree
// a freshly written block lands exactly at the deepest level its (new)
// leaf shares with the written (old) path — never shallower.
func TestEvictionPrefersDeepPlacement(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := Params{
			LeafLevel: 4, Z: 1, BlockBytes: 0, Blocks: 31,
			StashCapacity: 31,
		}
		var written uint64
		p.OnPathAccess = func(leaf uint64, _ AccessKind) { written = leaf }
		o, store, pos := newTestORAM(t, p, 781+seed)
		if _, err := o.Access(3, OpWrite, nil); err != nil {
			t.Fatal(err)
		}
		newLeaf, ok, err := pos.Peek(3)
		if err != nil || !ok {
			t.Fatalf("no position: %v %v", ok, err)
		}
		if o.StashSize() != 0 {
			t.Fatalf("block stuck in the stash of an empty tree")
		}
		placedLevel := -1
		store.ForEachBlock(func(s Slot, level int, _ uint64) {
			if s.Addr == 3 {
				placedLevel = level
			}
		})
		want := o.Tree().DeepestLevel(uint64(newLeaf), written)
		if placedLevel != want {
			t.Errorf("seed %d: block at level %d, want deepest shared level %d "+
				"(new leaf %d, written path %d)", seed, placedLevel, want, newLeaf, written)
		}
	}
}
