package placement

import (
	"testing"

	"repro/internal/treemath"
)

func TestNaiveLayout(t *testing.T) {
	tr := treemath.New(3)
	m := NewNaive(tr, 128, 4096)
	if m.Name() != "naive" {
		t.Error("name")
	}
	if m.BucketAddr(0) != 4096 || m.BucketAddr(5) != 4096+5*128 {
		t.Error("naive addressing wrong")
	}
	if m.Size() != 15*128 {
		t.Errorf("Size=%d want %d", m.Size(), 15*128)
	}
}

func TestSubtreeK(t *testing.T) {
	tr := treemath.New(10)
	// Node of 8 KB, buckets of 448 B: (2^k - 1)*448 <= 8192 -> k = 4.
	s, err := NewSubtree(tr, 448, 8192, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 4 {
		t.Errorf("K=%d want 4", s.K())
	}
	// 2-channel node (16 KB): (2^5 - 1)*448 = 13888 <= 16384 -> k = 5.
	s2, _ := NewSubtree(tr, 448, 16384, 0)
	if s2.K() != 5 {
		t.Errorf("K=%d want 5", s2.K())
	}
}

func TestSubtreeValidation(t *testing.T) {
	tr := treemath.New(4)
	if _, err := NewSubtree(tr, 0, 4096, 0); err == nil {
		t.Error("zero bucket accepted")
	}
	if _, err := NewSubtree(tr, 512, 256, 0); err == nil {
		t.Error("node smaller than bucket accepted")
	}
}

func TestSubtreeNoOverlap(t *testing.T) {
	tr := treemath.New(8)
	for _, nodeBytes := range []int{1024, 4096, 8192} {
		s, err := NewSubtree(tr, 128, nodeBytes, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]uint64{}
		for flat := uint64(0); flat < tr.NumBuckets(); flat++ {
			base := s.BucketAddr(flat)
			if base+128 > s.Size() {
				t.Fatalf("node=%d: bucket %d at %d spills past size %d", nodeBytes, flat, base, s.Size())
			}
			if prev, dup := seen[base]; dup {
				t.Fatalf("node=%d: buckets %d and %d collide at %d", nodeBytes, prev, flat, base)
			}
			seen[base] = flat
			if base%128 != 0 {
				t.Fatalf("bucket %d not bucket-aligned: %d", flat, base)
			}
		}
	}
}

func TestSubtreeGroupsShareNode(t *testing.T) {
	// All buckets of one k-level subtree must land inside one node-stride
	// window; buckets of different subtrees must not share a window.
	tr := treemath.New(9)
	s, err := NewSubtree(tr, 128, 2048, 0) // k = 4: (2^4-1)*128 = 1920 <= 2048
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 4 {
		t.Fatalf("K=%d want 4", s.K())
	}
	nodeOf := func(flat uint64) uint64 { return s.BucketAddr(flat) / 2048 }
	// Walk a path: within each group of k levels the node must not change;
	// across groups it must.
	for leaf := uint64(0); leaf < tr.NumLeaves(); leaf += 37 {
		var prevNode uint64
		for d := 0; d <= tr.LeafLevel(); d++ {
			n := nodeOf(tr.PathBucket(leaf, d))
			if d == 0 {
				prevNode = n
				continue
			}
			sameGroup := d/s.K() == (d-1)/s.K()
			if sameGroup && n != prevNode {
				t.Fatalf("leaf %d level %d: node changed within a group", leaf, d)
			}
			if !sameGroup && n == prevNode {
				t.Fatalf("leaf %d level %d: node did not change across groups", leaf, d)
			}
			prevNode = n
		}
	}
}

func TestSubtreePathTouchesFewNodes(t *testing.T) {
	// The point of the layout: a path of L+1 buckets touches only
	// ceil((L+1)/k) nodes, versus up to L+1 under the naive layout.
	tr := treemath.New(9)
	sub, err := NewSubtree(tr, 128, 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	naive := NewNaive(tr, 128, 0)
	countNodes := func(m Mapper, leaf uint64) int {
		nodes := map[uint64]bool{}
		for _, a := range m.PathAddrs(leaf, nil) {
			nodes[a/2048] = true
		}
		return len(nodes)
	}
	wantSub := (tr.Levels() + sub.K() - 1) / sub.K()
	for leaf := uint64(0); leaf < tr.NumLeaves(); leaf += 41 {
		if got := countNodes(sub, leaf); got != wantSub {
			t.Errorf("leaf %d: subtree path touches %d nodes want %d", leaf, got, wantSub)
		}
		if got := countNodes(naive, leaf); got <= wantSub {
			t.Errorf("leaf %d: naive path touches %d nodes, expected more than %d", leaf, got, wantSub)
		}
	}
}

func TestPathAddrsLength(t *testing.T) {
	tr := treemath.New(6)
	m := NewNaive(tr, 64, 0)
	addrs := m.PathAddrs(13, nil)
	if len(addrs) != 7 {
		t.Fatalf("path length %d want 7", len(addrs))
	}
	if addrs[0] != 0 {
		t.Errorf("root should be at 0")
	}
}

// TestPathAddrsMatchesBucketAddr holds both walks to the per-bucket
// decode on every leaf of trees with 1 to 13 levels, at a nonzero base, for
// node sizes whose k is 1 (every level its own group), 3 or 4 (k dividing
// Levels() for some trees and not others) and the whole tree (one group).
func TestPathAddrsMatchesBucketAddr(t *testing.T) {
	const base, bucket = 3 << 20, 96
	for l := 0; l <= 12; l++ {
		tr := treemath.New(l)
		mappers := []Mapper{NewNaive(tr, bucket, base)}
		for _, node := range []int{bucket, 7 * bucket, 15 * bucket, 1 << 24} {
			s, err := NewSubtree(tr, bucket, node, base)
			if err != nil {
				t.Fatal(err)
			}
			mappers = append(mappers, s)
		}
		var buf []uint64
		for _, m := range mappers {
			for leaf := uint64(0); leaf < tr.NumLeaves(); leaf++ {
				buf = m.PathAddrs(leaf, buf[:0])
				if len(buf) != tr.Levels() {
					t.Fatalf("L=%d %s leaf %d: %d addresses, want %d", l, m.Name(), leaf, len(buf), tr.Levels())
				}
				for d, a := range buf {
					if want := m.BucketAddr(tr.PathBucket(leaf, d)); a != want {
						t.Fatalf("L=%d %s leaf %d level %d: walk %d, BucketAddr %d", l, m.Name(), leaf, d, a, want)
					}
				}
			}
		}
	}
}

func TestSubtreeSizeCoversDeepTrees(t *testing.T) {
	// Size must cover the deepest bucket even when L+1 is not a multiple
	// of k.
	for _, l := range []int{5, 6, 7, 8} {
		tr := treemath.New(l)
		s, err := NewSubtree(tr, 100, 1024, 0)
		if err != nil {
			t.Fatal(err)
		}
		var maxEnd uint64
		for flat := uint64(0); flat < tr.NumBuckets(); flat++ {
			if end := s.BucketAddr(flat) + 100; end > maxEnd {
				maxEnd = end
			}
		}
		if maxEnd > s.Size() {
			t.Errorf("L=%d: max end %d exceeds Size %d", l, maxEnd, s.Size())
		}
	}
}
