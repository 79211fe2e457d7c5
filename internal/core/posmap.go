package core

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// LeafSource supplies uniformly random leaf labels. The ORAM's security
// rests on these draws being uniform and independent (Section 3.1.2).
type LeafSource interface {
	// Leaf returns a uniform label in [0, n). n is always a power of two.
	Leaf(n uint64) uint64
}

// mathLeafSource draws from a seeded math/rand generator; experiments use
// it for reproducibility.
type mathLeafSource struct{ rng *rand.Rand }

// NewMathLeafSource returns a deterministic LeafSource for simulations.
func NewMathLeafSource(rng *rand.Rand) LeafSource { return mathLeafSource{rng} }

func (s mathLeafSource) Leaf(n uint64) uint64 { return s.rng.Uint64() & (n - 1) }

// cryptoLeafSource draws from crypto/rand in 8-byte batches. It is the
// default for the public library so real deployments get cryptographic
// randomness.
type cryptoLeafSource struct {
	buf  [512]byte
	next int
}

// NewCryptoLeafSource returns a LeafSource backed by crypto/rand.
func NewCryptoLeafSource() LeafSource { return &cryptoLeafSource{next: 512} }

func (s *cryptoLeafSource) Leaf(n uint64) uint64 {
	if s.next+8 > len(s.buf) {
		if _, err := crand.Read(s.buf[:]); err != nil {
			// crypto/rand never fails on supported platforms; if it does,
			// the process has no business continuing to emit "random" paths.
			panic(fmt.Sprintf("core: crypto/rand failed: %v", err))
		}
		s.next = 0
	}
	v := binary.LittleEndian.Uint64(s.buf[s.next:])
	s.next += 8
	return v & (n - 1)
}

// PositionMap associates each super block (group of adjacent program
// addresses, Section 3.2) with its current leaf. It is read only through
// an access: the exclusive Store path takes a checked-out block's leaf from
// the ORAM's own checkout record, the leaf tag a secure processor keeps
// next to each cache line (Section 3.3.1).
type PositionMap interface {
	// Access returns the group's current leaf and atomically remaps the
	// group to a fresh uniformly random leaf (step 4 of the paper's
	// accessORAM). For a group that was never mapped, the "current" leaf
	// is a fresh uniform draw, matching the paper's initialization rule.
	Access(group uint64) (old, new uint32, err error)
}

// OnChipPositionMap is the flat N-entry lookup table of Section 2.1: one
// label per group, held "on chip".
type OnChipPositionMap struct {
	leaves    []uint32
	numLeaves uint64
	src       LeafSource
}

// NewOnChipPositionMap builds a position map for the given number of groups
// over a tree with numLeaves leaves.
func NewOnChipPositionMap(groups uint64, numLeaves uint64, src LeafSource) (*OnChipPositionMap, error) {
	if groups == 0 {
		return nil, fmt.Errorf("core: position map needs at least one group")
	}
	if numLeaves == 0 || numLeaves&(numLeaves-1) != 0 {
		return nil, fmt.Errorf("core: numLeaves=%d must be a power of two", numLeaves)
	}
	m := &OnChipPositionMap{
		leaves:    make([]uint32, groups),
		numLeaves: numLeaves,
		src:       src,
	}
	for i := range m.leaves {
		m.leaves[i] = UnassignedLeaf
	}
	return m, nil
}

// Access implements PositionMap.
func (m *OnChipPositionMap) Access(group uint64) (old, new uint32, err error) {
	if group >= uint64(len(m.leaves)) {
		return 0, 0, fmt.Errorf("core: position map group %d out of range", group)
	}
	old = m.leaves[group]
	if old == UnassignedLeaf {
		old = uint32(m.src.Leaf(m.numLeaves))
	}
	new = uint32(m.src.Leaf(m.numLeaves))
	m.leaves[group] = new
	return old, new, nil
}

// SizeBits returns the on-chip storage the table needs with labelBits-bit
// labels (the paper's N*L accounting, Section 2.3).
func (m *OnChipPositionMap) SizeBits(labelBits int) uint64 {
	return uint64(len(m.leaves)) * uint64(labelBits)
}
