package core

import (
	"fmt"

	"repro/internal/treemath"
)

// Slot is one real block as Load and SlotIO hand it out: program
// address, currently assigned leaf, and payload (nil in metadata-only
// mode).
type Slot struct {
	Addr uint64
	Leaf uint32
	Data []byte
}

// Entry is a real block's record in a stash or a write-back: program
// address, assigned leaf, and the Slab slot holding its payload. It holds
// no pointer, so placement copies 16 bytes a block.
type Entry struct {
	Addr uint64
	Leaf uint32
	Slot int32
}

// Slab is an arena of fixed-size payload slots (at most 2^31): the one
// home of the payloads its owner (a stash, a pending write-back, a
// MemStore tree) holds.
type Slab struct {
	buf  []byte
	size int
}

// NewSlab returns a zeroed slab of n slots of size bytes.
func NewSlab(n, size int) Slab { return Slab{buf: make([]byte, n*size), size: size} }

// At returns slot i's payload (nil in metadata-only mode).
func (s Slab) At(i int32) []byte {
	o := int(i) * s.size
	return s.buf[o : o+s.size : o+s.size]
}

// Path is one path write-back: Buckets[d] lists the level-d bucket's
// blocks (at most Z), whose payloads sit in Slab.
type Path struct {
	Buckets [][]Entry
	Slab    Slab
}

// BlockSink receives a path read's real blocks: Block returns the buffer
// (valid until the next call) for the payload of block (addr, leaf).
type BlockSink interface {
	Block(level int, addr uint64, leaf uint32) []byte
}

// PathStore abstracts the external-memory tree at path granularity, the
// unit of every Path ORAM operation.
//
// ReadPathInto emits the real blocks on the path to leaf in root-to-leaf
// bucket order, and in slot order within a bucket (the staged access path
// merges store buckets and pending write-back buckets into the stash in
// exact bucket order). skip, when non-nil, has one flag per level; a set
// flag means the caller already holds that bucket's live content (it
// sits in a pending deferred write-back) and the store must not emit the
// bucket's — stale — blocks. Implementations are free to still touch the
// skipped ciphertexts for verification; they just don't decode them.
//
// WritePathFrom replaces the whole path with p (unfilled slots become
// dummies) or, refused, leaves it as it was. With deferred write-backs the write for a path may arrive after reads
// (and write-backs) of other paths; stores must not assume strict
// read/write alternation, only that every write was preceded by a read
// of the same path at some earlier point.
type PathStore interface {
	ReadPathInto(leaf uint64, skip []bool, dst BlockSink) error
	WritePathFrom(leaf uint64, p *Path) error
}

// SlotIO is a PathStore's ReadPath and WritePath over [][]Slot paths,
// for tests and benchmarks: an adapter over the in-place pair owning one
// path of payload slots, which ReadPath's Slot.Data alias until the next
// call.
type SlotIO struct {
	store PathStore
	path  Path // each bucket's capacity is Z
	read  [][]Slot
	n     int32
}

// NewSlotIO builds the adapter for store, a tree of levels buckets of z
// blocks of blockBytes each.
func NewSlotIO(store PathStore, levels, z, blockBytes int) SlotIO {
	a := SlotIO{store: store, path: Path{
		Buckets: make([][]Entry, levels), Slab: NewSlab(levels*z, blockBytes)}}
	for d := range a.path.Buckets {
		a.path.Buckets[d] = make([]Entry, 0, z)
	}
	return a
}

// ReadPath is ReadPathInto with dst[d] holding the level-d bucket's
// blocks; a non-nil dst is truncated and reused.
func (a *SlotIO) ReadPath(leaf uint64, skip []bool, dst [][]Slot) ([][]Slot, error) {
	if dst == nil {
		dst = make([][]Slot, len(a.path.Buckets))
	}
	if len(dst) != len(a.path.Buckets) {
		return dst, fmt.Errorf("core: read buffer has %d buckets, want %d", len(dst), len(a.path.Buckets))
	}
	for d := range dst {
		dst[d] = dst[d][:0]
	}
	a.read, a.n = dst, 0
	err := a.store.ReadPathInto(leaf, skip, (*slotSink)(a))
	a.read = nil
	return dst, err
}

// slotSink is SlotIO's BlockSink, kept off the method set of the stores
// that embed SlotIO.
type slotSink SlotIO

func (s *slotSink) Block(level int, addr uint64, leaf uint32) []byte {
	buf := s.path.Slab.At(s.n)
	s.n++
	s.read[level] = append(s.read[level], Slot{Addr: addr, Leaf: leaf, Data: buf})
	return buf
}

// WritePath is WritePathFrom with buckets[d] holding the level-d
// bucket's blocks, each payload exactly blockBytes long.
func (a *SlotIO) WritePath(leaf uint64, buckets [][]Slot) error {
	if len(buckets) != len(a.path.Buckets) {
		return fmt.Errorf("core: WritePath got %d buckets, want %d", len(buckets), len(a.path.Buckets))
	}
	n := int32(0)
	for d, b := range buckets {
		if z := cap(a.path.Buckets[d]); len(b) > z {
			return fmt.Errorf("core: bucket at level %d holds %d > Z=%d blocks", d, len(b), z)
		}
		a.path.Buckets[d] = a.path.Buckets[d][:0]
		for _, s := range b {
			buf := a.path.Slab.At(n)
			if len(s.Data) != len(buf) {
				return fmt.Errorf("core: block %d payload %dB, want %dB", s.Addr, len(s.Data), len(buf))
			}
			copy(buf, s.Data)
			a.path.Buckets[d] = append(a.path.Buckets[d], Entry{Addr: s.Addr, Leaf: s.Leaf, Slot: n})
			n++
		}
	}
	return a.store.WritePathFrom(leaf, &a.path)
}

// MemStore is the plain in-memory PathStore: no serialization, no
// encryption. It backs the design-space simulations, where only metadata
// matters, and the fast functional tests. Slot storage is flat (two parallel
// arrays plus one payload arena) to keep paper-scale trees tractable.
type MemStore struct {
	tree treemath.Tree
	z    int
	// addr1[i] == 0 marks an empty slot; otherwise it stores Addr+1
	// (the paper reserves address 0 for dummy blocks; the same trick
	// gives us a zero-initialized empty tree).
	addr1  []uint64
	leaves []uint32
	// arena holds the payload of every slot (empty in metadata-only
	// mode).
	arena Slab
	SlotIO
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
		arena:  NewSlab(int(slots), max(blockBytes, 0)),
	}
	s.SlotIO = NewSlotIO(s, tree.Levels(), z, s.arena.size)
	return s, nil
}

// MemoryBytes returns the bytes the store's arrays hold: per slot an 8-byte
// address, a 4-byte leaf and blockBytes of payload.
func (s *MemStore) MemoryBytes() uint64 {
	return uint64(len(s.addr1)) * uint64(8+4+s.arena.size)
}

// ReadPathInto implements PathStore.
func (s *MemStore) ReadPathInto(leaf uint64, skip []bool, dst BlockSink) error {
	if !s.tree.ValidLeaf(leaf) {
		return fmt.Errorf("core: leaf %d out of range", leaf)
	}
	for d := 0; d <= s.tree.LeafLevel(); d++ {
		if skip != nil && skip[d] {
			continue
		}
		base := s.tree.PathBucket(leaf, d) * uint64(s.z)
		for i := base; i < base+uint64(s.z); i++ {
			if a := s.addr1[i]; a != 0 {
				copy(dst.Block(d, a-1, s.leaves[i]), s.arena.At(int32(i)))
			}
		}
	}
	return nil
}

// WritePathFrom implements PathStore.
func (s *MemStore) WritePathFrom(leaf uint64, p *Path) error {
	if !s.tree.ValidLeaf(leaf) {
		return fmt.Errorf("core: leaf %d out of range", leaf)
	}
	if len(p.Buckets) != s.tree.Levels() {
		return fmt.Errorf("core: WritePath got %d buckets, want %d", len(p.Buckets), s.tree.Levels())
	}
	for d, b := range p.Buckets {
		if len(b) > s.z {
			return fmt.Errorf("core: bucket at level %d holds %d > Z=%d blocks", d, len(b), s.z)
		}
	}
	for d, b := range p.Buckets {
		base := s.tree.PathBucket(leaf, d) * uint64(s.z)
		for i := 0; i < s.z; i++ {
			idx := base + uint64(i)
			if i < len(b) {
				s.addr1[idx] = b[i].Addr + 1
				s.leaves[idx] = b[i].Leaf
				copy(s.arena.At(int32(idx)), p.Slab.At(b[i].Slot))
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
		for i := base; i < base+uint64(s.z); i++ {
			if a := s.addr1[i]; a != 0 {
				fn(Slot{Addr: a - 1, Leaf: s.leaves[i], Data: s.arena.At(int32(i))}, s.tree.LevelOf(flat), s.tree.PosOf(flat))
			}
		}
	}
}
