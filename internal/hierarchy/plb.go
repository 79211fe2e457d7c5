package hierarchy

// plb is the position-map lookaside cache of Section 3.3.3: a small
// set-associative LRU sitting in front of one oramPosMap interface, caching
// group→leaf labels. A hit makes the cached label authoritative (the
// backing ORAM's copy goes stale) and elides the backing access — and with
// it every smaller ORAM above it — cutting the chain short. The cache is
// write-back: a hit remaps the group in place and marks the entry dirty;
// the exact cached label is written into the backing ORAM only when the
// entry is evicted or the hierarchy flushes. Losing a dirty label would
// lose the block it names, so eviction write-backs are not optional.
//
// The structure is flat arrays (no maps) so the hit path stays 0 alloc/op
// under the CI allocation gate, mirroring how a hardware PLB would be a
// plain tag/data RAM next to the stash.
type plb struct {
	ways    int
	setMask uint64
	entries []plbEntry // len = sets*ways; set s occupies [s*ways, (s+1)*ways)
	clock   uint64     // LRU stamp source (monotone per lookup/insert)

	hits       uint64
	misses     uint64
	writeBacks uint64
}

type plbEntry struct {
	group uint64
	leaf  uint32
	valid bool
	dirty bool
	stamp uint64
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
// a useful design point and would complicate the index math.
func newPLB(bytes uint64) *plb {
	if bytes == 0 {
		return nil
	}
	sets := 1
	for uint64(2*sets*plbWays)*plbEntryBytes <= bytes {
		sets *= 2
	}
	return &plb{
		ways:    plbWays,
		setMask: uint64(sets - 1),
		entries: make([]plbEntry, sets*plbWays),
	}
}

// sizeBytes returns the provisioned on-chip footprint.
func (c *plb) sizeBytes() uint64 {
	return uint64(len(c.entries)) * plbEntryBytes
}

// lookup probes the cache and returns the resident entry for group, or nil
// on a miss. On a hit the entry's LRU stamp is refreshed; the caller remaps
// the group by rewriting the entry's leaf in place and marking it dirty.
func (c *plb) lookup(group uint64) *plbEntry {
	base := (group & c.setMask) * uint64(c.ways)
	set := c.entries[base : base+uint64(c.ways)]
	for i := range set {
		if set[i].valid && set[i].group == group {
			c.clock++
			set[i].stamp = c.clock
			return &set[i]
		}
	}
	return nil
}

// insert places a clean entry for group (the backing ORAM already holds
// leaf). If the set is full the LRU way is evicted; a dirty victim is
// returned for the caller to write back — exact label, no remap.
func (c *plb) insert(group uint64, leaf uint32) (victim plbEntry, dirty bool) {
	base := (group & c.setMask) * uint64(c.ways)
	set := c.entries[base : base+uint64(c.ways)]
	way := 0
	for i := range set {
		if !set[i].valid {
			way = i
			break
		}
		if set[i].stamp < set[way].stamp {
			way = i
		}
	}
	victim = set[way]
	c.clock++
	set[way] = plbEntry{group: group, leaf: leaf, valid: true, stamp: c.clock}
	return victim, victim.valid && victim.dirty
}

// dirtyEntries appends every dirty entry to dst (flush support).
func (c *plb) dirtyEntries(dst []plbEntry) []plbEntry {
	for i := range c.entries {
		if c.entries[i].valid && c.entries[i].dirty {
			dst = append(dst, c.entries[i])
		}
	}
	return dst
}

// invalidate drops every entry. Counters survive (they are measurement
// state, reset separately by resetStats).
func (c *plb) invalidate() {
	for i := range c.entries {
		c.entries[i] = plbEntry{}
	}
}

// resetStats clears the hit/miss/write-back counters but not the cached
// labels: measurement boundaries must not change protocol state.
func (c *plb) resetStats() {
	c.hits, c.misses, c.writeBacks = 0, 0, 0
}
