package core

import (
	"fmt"

	"repro/internal/treemath"
)

// Slot is one real block as it travels between the tree, the stash and the
// caller: program address, currently assigned leaf, and payload (nil in
// metadata-only mode).
type Slot struct {
	Addr uint64
	Leaf uint32
	Data []byte
}

// PathStore abstracts the external-memory tree at path granularity, the
// unit of every Path ORAM operation.
//
// ReadPath returns the real blocks stored on the path to the given leaf,
// one bucket per level in root-to-leaf order (dst[d] holds the level-d
// bucket's blocks; the per-level shape mirrors WritePath, and the staged
// access path depends on it to merge store buckets and pending write-back
// buckets into the stash in exact bucket order). dst, when non-nil, is
// reused: each dst[d] is truncated and appended to. skip, when non-nil,
// has one flag per level; a set flag means the caller already holds that
// bucket's live content (it sits in a pending deferred write-back) and
// the store must not emit the bucket's — stale — blocks. Implementations
// are free to still touch the skipped ciphertexts for verification; they
// just don't decode them.
//
// WritePath replaces the whole path: buckets[d] holds the blocks for the
// level-d bucket (at most Z); unfilled slots become dummy blocks. With
// deferred write-backs the write for a path may arrive after reads (and
// write-backs) of other paths; stores must not assume strict read/write
// alternation, only that every write was preceded by a read of the same
// path at some earlier point.
type PathStore interface {
	ReadPath(leaf uint64, skip []bool, dst [][]Slot) ([][]Slot, error)
	WritePath(leaf uint64, buckets [][]Slot) error
}

// MemStore is the plain in-memory PathStore: no serialization, no
// encryption. It backs the design-space simulations, where only metadata
// matters, and the fast functional tests. Slot storage is flat (two parallel
// arrays plus one payload arena) to keep paper-scale trees tractable.
//
// Ownership contract (shared with the encrypting store): WritePath copies
// incoming payloads into the store's arena, so callers keep — and may
// immediately recycle — their buffers; ReadPath emits Slot.Data slices that
// alias the arena and stay valid only until a later WritePath overwrites
// that slot.
type MemStore struct {
	tree treemath.Tree
	z    int
	// addr1[i] == 0 marks an empty slot; otherwise it stores Addr+1
	// (the paper reserves address 0 for dummy blocks; the same trick
	// gives us a zero-initialized empty tree).
	addr1  []uint64
	leaves []uint32
	// arena holds blockBytes of payload per slot, flat over all slots
	// (nil in metadata-only mode).
	arena      []byte
	blockBytes int
}

// NewMemStore allocates an empty tree with the given leaf level and bucket
// capacity. If blockBytes > 0 payloads are stored; otherwise the store is
// metadata-only.
func NewMemStore(leafLevel, z, blockBytes int) (*MemStore, error) {
	if z < 1 {
		return nil, fmt.Errorf("core: Z=%d must be >= 1", z)
	}
	tree := treemath.New(leafLevel)
	slots := tree.NumBuckets() * uint64(z)
	s := &MemStore{
		tree:   tree,
		z:      z,
		addr1:  make([]uint64, slots),
		leaves: make([]uint32, slots),
	}
	if blockBytes > 0 {
		s.blockBytes = blockBytes
		s.arena = make([]byte, slots*uint64(blockBytes))
	}
	return s, nil
}

// MemoryBytes returns the bytes the store's arrays hold: per slot an 8-byte
// address, a 4-byte leaf and blockBytes of payload.
func (s *MemStore) MemoryBytes() uint64 {
	return uint64(len(s.addr1)) * uint64(8+4+s.blockBytes)
}

// slotData returns the arena sub-slice of slot idx (nil in metadata-only
// mode).
func (s *MemStore) slotData(idx uint64) []byte {
	if s.blockBytes == 0 {
		return nil
	}
	off := idx * uint64(s.blockBytes)
	return s.arena[off : off+uint64(s.blockBytes) : off+uint64(s.blockBytes)]
}

// ReadPath implements PathStore.
func (s *MemStore) ReadPath(leaf uint64, skip []bool, dst [][]Slot) ([][]Slot, error) {
	var err error
	if dst, err = prepareReadBuf(dst, s.tree.Levels()); err != nil {
		return dst, err
	}
	if !s.tree.ValidLeaf(leaf) {
		return dst, fmt.Errorf("core: leaf %d out of range", leaf)
	}
	for d := 0; d <= s.tree.LeafLevel(); d++ {
		if skip != nil && skip[d] {
			continue
		}
		base := s.tree.PathBucket(leaf, d) * uint64(s.z)
		for i := uint64(0); i < uint64(s.z); i++ {
			if a := s.addr1[base+i]; a != 0 {
				dst[d] = append(dst[d], Slot{
					Addr: a - 1,
					Leaf: s.leaves[base+i],
					Data: s.slotData(base + i),
				})
			}
		}
	}
	return dst, nil
}

// PrepareReadBuf sizes dst for a ReadPath over levels buckets, truncating
// reused per-level slices. Store implementations share it so the
// buffer-reuse contract stays uniform.
func PrepareReadBuf(dst [][]Slot, levels int) ([][]Slot, error) {
	return prepareReadBuf(dst, levels)
}

func prepareReadBuf(dst [][]Slot, levels int) ([][]Slot, error) {
	if dst == nil {
		return make([][]Slot, levels), nil
	}
	if len(dst) != levels {
		return dst, fmt.Errorf("core: read buffer has %d buckets, want %d", len(dst), levels)
	}
	for d := range dst {
		dst[d] = dst[d][:0]
	}
	return dst, nil
}

// WritePath implements PathStore.
func (s *MemStore) WritePath(leaf uint64, buckets [][]Slot) error {
	if !s.tree.ValidLeaf(leaf) {
		return fmt.Errorf("core: leaf %d out of range", leaf)
	}
	if len(buckets) != s.tree.Levels() {
		return fmt.Errorf("core: WritePath got %d buckets, want %d", len(buckets), s.tree.Levels())
	}
	for d := 0; d <= s.tree.LeafLevel(); d++ {
		if len(buckets[d]) > s.z {
			return fmt.Errorf("core: bucket at level %d holds %d > Z=%d blocks", d, len(buckets[d]), s.z)
		}
		base := s.tree.PathBucket(leaf, d) * uint64(s.z)
		for i := 0; i < s.z; i++ {
			idx := base + uint64(i)
			if i < len(buckets[d]) {
				b := buckets[d][i]
				s.addr1[idx] = b.Addr + 1
				s.leaves[idx] = b.Leaf
				copy(s.slotData(idx), b.Data)
			} else {
				// Empty slots are never emitted (addr1 == 0), so their
				// stale arena bytes need no scrub.
				s.addr1[idx] = 0
				s.leaves[idx] = 0
			}
		}
	}
	return nil
}

// CountBlocks scans the whole tree and returns the number of real blocks
// stored. It exists for tests and invariant checks; it is O(tree size).
func (s *MemStore) CountBlocks() uint64 {
	var n uint64
	for _, a := range s.addr1 {
		if a != 0 {
			n++
		}
	}
	return n
}

// ForEachBlock invokes fn for every real block in the tree with its bucket
// level. Intended for invariant checking in tests.
func (s *MemStore) ForEachBlock(fn func(slot Slot, level int, bucketPos uint64)) {
	for flat := uint64(0); flat < s.tree.NumBuckets(); flat++ {
		base := flat * uint64(s.z)
		for i := 0; i < s.z; i++ {
			if a := s.addr1[base+uint64(i)]; a != 0 {
				slot := Slot{
					Addr: a - 1,
					Leaf: s.leaves[base+uint64(i)],
					Data: s.slotData(base + uint64(i)),
				}
				fn(slot, s.tree.LevelOf(flat), s.tree.PosOf(flat))
			}
		}
	}
}
