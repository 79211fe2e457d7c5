// Package placement maps ORAM tree buckets to physical byte addresses.
// The naive layout stores buckets as a flat array, which destroys row-
// buffer locality: two consecutive buckets on a path land in unrelated
// rows. The subtree layout of Section 3.3.4 (Figure 6) packs each k-level
// subtree contiguously into one "node" sized to the aggregate row-buffer
// footprint (row bytes × channels), so a path read touches one row per
// channel per k levels.
package placement

import (
	"fmt"

	"repro/internal/treemath"
)

// Mapper places buckets in physical memory.
type Mapper interface {
	// Name identifies the strategy in reports.
	Name() string
	// BucketAddr returns the base byte address of a bucket (flat index).
	BucketAddr(flat uint64) uint64
	// Size returns the total bytes the layout spans.
	Size() uint64
	// PathAddrs appends the base byte address of every bucket on the path
	// to leaf (root first) to dst: BucketAddr of each PathBucket, found by
	// one walk down the path instead of one decode per bucket.
	PathAddrs(leaf uint64, dst []uint64) []uint64
}

// Naive lays buckets out flat in heap order.
type Naive struct {
	tree        treemath.Tree
	base        uint64
	bucketBytes uint64
}

// NewNaive builds the flat layout starting at base.
func NewNaive(tree treemath.Tree, bucketBytes int, base uint64) *Naive {
	return &Naive{tree: tree, base: base, bucketBytes: uint64(bucketBytes)}
}

// Name implements Mapper.
func (n *Naive) Name() string { return "naive" }

// BucketAddr implements Mapper.
func (n *Naive) BucketAddr(flat uint64) uint64 { return n.base + flat*n.bucketBytes }

// Size implements Mapper.
func (n *Naive) Size() uint64 { return n.tree.NumBuckets() * n.bucketBytes }

// PathAddrs implements Mapper: the heap child of bucket i is 2i+1 plus the
// leaf's next bit, so each level's address is two adds from the last.
func (n *Naive) PathAddrs(leaf uint64, dst []uint64) []uint64 {
	addr, l := n.base, n.tree.LeafLevel()
	dst = append(dst, addr)
	for d := 1; d <= l; d++ {
		bit := leaf >> uint(l-d) & 1
		addr = 2*addr - n.base + (1+bit)*n.bucketBytes
		dst = append(dst, addr)
	}
	return dst
}

// Subtree packs each k-level subtree into one node of nodeStride bytes.
type Subtree struct {
	tree        treemath.Tree
	base        uint64
	bucketBytes uint64
	k           int      // levels per packed subtree
	nodeStride  uint64   // bytes per packed subtree (aligned container)
	groupBase   []uint64 // byte address of group g's first node
}

// NewSubtree builds the packed layout. nodeBytes is the target node size
// (the paper uses rowBytes × channels); k is derived as the largest number
// of levels whose subtree fits, and the node stride is padded up to
// nodeBytes so nodes align with row-buffer boundaries.
func NewSubtree(tree treemath.Tree, bucketBytes int, nodeBytes int, base uint64) (*Subtree, error) {
	if bucketBytes <= 0 {
		return nil, fmt.Errorf("placement: bucket size must be positive")
	}
	if nodeBytes < bucketBytes {
		return nil, fmt.Errorf("placement: node size %d smaller than one bucket (%d)", nodeBytes, bucketBytes)
	}
	k := 1
	for (uint64(1)<<uint(k+1)-1)*uint64(bucketBytes) <= uint64(nodeBytes) && k < tree.Levels() {
		k++
	}
	s := &Subtree{
		tree:        tree,
		base:        base,
		bucketBytes: uint64(bucketBytes),
		k:           k,
		nodeStride:  uint64(nodeBytes),
	}
	// Group g holds 2^(g·k) nodes: the subtrees rooted at level g·k.
	addr := base
	for g := 0; g < (tree.Levels()+k-1)/k; g++ {
		s.groupBase = append(s.groupBase, addr)
		addr += uint64(1) << uint(g*k) * s.nodeStride
	}
	// If the whole tree fits in fewer bytes than one node, shrink the
	// stride to the actual subtree footprint (still bucket-aligned).
	if minBytes := (uint64(1)<<uint(k) - 1) * uint64(bucketBytes); s.nodeStride < minBytes {
		return nil, fmt.Errorf("placement: internal stride error")
	}
	return s, nil
}

// K returns the number of tree levels packed per node.
func (s *Subtree) K() int { return s.k }

// Name implements Mapper.
func (s *Subtree) Name() string { return "subtree" }

// BucketAddr implements Mapper. A bucket at (level d, position i) belongs
// to the group g = d/k; its subtree root is at level g·k with position
// i >> (d mod k); within the subtree it occupies local heap position
// 2^(d mod k) - 1 + (i & (2^(d mod k) - 1)).
func (s *Subtree) BucketAddr(flat uint64) uint64 {
	d := s.tree.LevelOf(flat)
	i := s.tree.PosOf(flat)
	g := d / s.k
	r := uint(d % s.k)
	rootPos := i >> r
	// Subtrees are numbered breadth-first over the 2^k-ary tree: groups
	// above g contribute (2^(g·k) - 1) / (2^k - 1) nodes.
	nodesAbove := ((uint64(1) << uint(g*s.k)) - 1) / ((uint64(1) << uint(s.k)) - 1)
	nodeID := nodesAbove + rootPos
	local := (uint64(1) << r) - 1 + (i & ((uint64(1) << r) - 1))
	return s.base + nodeID*s.nodeStride + local*s.bucketBytes
}

// Size implements Mapper.
func (s *Subtree) Size() uint64 {
	last := len(s.groupBase) - 1
	return s.groupBase[last] - s.base + uint64(1)<<uint(last*s.k)*s.nodeStride
}

// PathAddrs implements Mapper. Within a group the bucket's offset in its
// node steps to the local heap child, 2·off + (1+bit)·bucketBytes; every k
// levels the walk enters the next group's node for the path's position.
func (s *Subtree) PathAddrs(leaf uint64, dst []uint64) []uint64 {
	l := s.tree.LeafLevel()
	node, off, g, r := s.base, uint64(0), 0, 0
	dst = append(dst, node)
	for d := 1; d <= l; d++ {
		if r++; r == s.k {
			g, r, off = g+1, 0, 0
			node = s.groupBase[g] + (leaf>>uint(l-d))*s.nodeStride
		} else {
			off = 2*off + (1+(leaf>>uint(l-d))&1)*s.bucketBytes
		}
		dst = append(dst, node+off)
	}
	return dst
}
