package hierarchy

import "repro/internal/cache"

// plb is the position-map lookaside cache of Section 3.3.3: a small
// set-associative LRU (the one internal/cache provides) sitting in front of
// one oramPosMap interface, caching group→leaf labels. A hit makes the
// cached label authoritative (the backing ORAM's copy goes stale) and
// elides the backing access — and with it every smaller ORAM above it —
// cutting the chain short. The cache is write-back: a hit remaps the group
// in place and marks the entry dirty; the exact cached label is written
// into the backing ORAM only when the entry is evicted or the hierarchy
// flushes. Losing a dirty label would lose the block it names, so eviction
// write-backs are not optional.
type plb struct {
	*cache.Cache[uint32]
	writeBacks uint64
}

// plbEntryBytes is the modeled on-chip cost of one entry: the 8-byte group
// tag plus the 4-byte leaf label (valid/dirty/LRU bits ride in the tag
// RAM's slack). OnChipBytes accounts the PLB at this rate.
const plbEntryBytes = 12

// plbWays is the associativity. Four ways keeps conflict misses low at
// the tiny capacities a PLB runs at while the victim scan stays a handful
// of comparisons.
const plbWays = 4

// newPLB sizes a cache for a byte budget. The budget rounds down to a
// power-of-two set count (at least one set), so a non-zero budget always
// yields at least plbWays entries — a PLB too small to hold one set is not
// a useful design point.
func newPLB(bytes uint64) *plb {
	if bytes == 0 {
		return nil
	}
	sets := 1
	for uint64(2*sets*plbWays)*plbEntryBytes <= bytes {
		sets *= 2
	}
	c, err := cache.New[uint32](sets, plbWays)
	if err != nil {
		panic(err) // unreachable: sets is a power of two
	}
	return &plb{Cache: c}
}

// sizeBytes returns the provisioned on-chip footprint.
func (c *plb) sizeBytes() uint64 {
	return uint64(c.Cap()) * plbEntryBytes
}
