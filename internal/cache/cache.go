// Package cache is the one set-associative write-back LRU of the repo. It
// serves as the L1 and L2 of the paper's processor model (Table 1: 32 KB
// 4-way L1, 1 MB 16-way L2, 128-byte lines, exclusive — Hierarchy below)
// and as the position-map lookaside buffer of Section 3.3.3
// (internal/hierarchy caches leaf labels in it). Exclusivity matters for
// the ORAM integration (Section 3.3.1): a line lives in exactly one of
// {L1, L2, ORAM}, so every L2 eviction — clean or dirty — must be handed
// back to the ORAM stash.
package cache

import "fmt"

// Entry is one way of a set: a key, the value cached for it and its dirty
// bit. Find hands out a pointer so a hit can rewrite Val and Dirty in
// place; Put and Remove return the entry they push out.
type Entry[V any] struct {
	Key   uint64
	Val   V
	Dirty bool
	// stamp orders the set by recency; 0 marks a free way (every resident
	// entry's stamp is a tick of the cache's clock, which starts at 1).
	stamp uint64
}

// Cache is a set-associative LRU over uint64 keys. The ways are one flat
// array (set s occupies [s*ways, (s+1)*ways)), indexed by the key's low
// bits and ordered by recency stamps, so no operation allocates — the
// PLB's hit path runs under a 0 allocs/op gate, like the tag/data RAM a
// hardware cache is.
type Cache[V any] struct {
	ways    int
	setMask uint64
	entries []Entry[V]
	clock   uint64 // recency stamp source (incremented per Find hit or Put)

	hits, misses uint64
}

// New builds an empty cache of sets × ways entries. sets must be a power
// of two (the key's low bits pick the set).
func New[V any](sets, ways int) (*Cache[V], error) {
	if sets <= 0 || ways <= 0 {
		return nil, fmt.Errorf("cache: %d sets × %d ways: both must be positive", sets, ways)
	}
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", sets)
	}
	return &Cache[V]{ways: ways, setMask: uint64(sets - 1), entries: make([]Entry[V], sets*ways)}, nil
}

func (c *Cache[V]) set(key uint64) []Entry[V] {
	base := (key & c.setMask) * uint64(c.ways)
	return c.entries[base : base+uint64(c.ways)]
}

func (c *Cache[V]) find(key uint64) *Entry[V] {
	set := c.set(key)
	for i := range set {
		if set[i].Key == key && set[i].stamp != 0 {
			return &set[i]
		}
	}
	return nil
}

// Find probes for key. A hit refreshes the entry's recency, counts a hit
// and returns the resident entry, which the caller may rewrite in place; a
// miss counts and returns nil.
func (c *Cache[V]) Find(key uint64) *Entry[V] {
	e := c.find(key)
	if e == nil {
		c.misses++
		return nil
	}
	c.hits++
	c.clock++
	e.stamp = c.clock
	return e
}

// Contains probes without touching recency or counters.
func (c *Cache[V]) Contains(key uint64) bool { return c.find(key) != nil }

// Put places key as the set's most recently used entry; the caller ensures
// it is not already resident. The way is the set's first free one, else
// its least recently used, which is returned as the victim: the first way
// with the smallest stamp either way.
func (c *Cache[V]) Put(key uint64, val V, dirty bool) (victim Entry[V], evicted bool) {
	set := c.set(key)
	way, oldest := 0, set[0].stamp
	for i := 1; i < len(set) && oldest != 0; i++ {
		if s := set[i].stamp; s < oldest {
			way, oldest = i, s
		}
	}
	victim = set[way]
	c.clock++
	set[way] = Entry[V]{Key: key, Val: val, Dirty: dirty, stamp: c.clock}
	return victim, victim.stamp != 0
}

// Remove extracts key's entry (an exclusive move between levels), without
// touching counters.
func (c *Cache[V]) Remove(key uint64) (Entry[V], bool) {
	e := c.find(key)
	if e == nil {
		return Entry[V]{}, false
	}
	out := *e
	*e = Entry[V]{}
	return out, true
}

// AppendDirty appends every dirty entry to dst in set, then way, order.
func (c *Cache[V]) AppendDirty(dst []Entry[V]) []Entry[V] {
	for i := range c.entries {
		if c.entries[i].Dirty {
			dst = append(dst, c.entries[i])
		}
	}
	return dst
}

// Clear drops every entry. The counters survive: they are measurement
// state, cleared by ResetStats.
func (c *Cache[V]) Clear() { clear(c.entries) }

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.entries {
		if c.entries[i].stamp != 0 {
			n++
		}
	}
	return n
}

// Cap returns the number of entries the cache holds when full.
func (c *Cache[V]) Cap() int { return len(c.entries) }

// Stats returns the hits and misses Find has counted.
func (c *Cache[V]) Stats() (hits, misses uint64) { return c.hits, c.misses }

// ResetStats clears the counters but not the entries: a measurement
// boundary must not change what is cached.
func (c *Cache[V]) ResetStats() { c.hits, c.misses = 0, 0 }

// Line is one cache line of the processor model: only its address (Key)
// and dirty bit matter.
type Line = Entry[struct{}]

// Hierarchy is the exclusive L1D + L2 pair. Instruction fetches are modeled
// as always hitting L1I (the synthetic traces carry no code addresses), so
// only the data side is simulated. Addresses are line-granular (byte
// address / line size).
type Hierarchy struct {
	L1, L2 *Cache[struct{}]

	l1Misses, l2Misses uint64
	accesses           uint64
}

// NewHierarchy builds an exclusive pair from byte capacities and
// associativities over one line size. Each level's set count must come
// out a power of two.
func NewHierarchy(l1Bytes, l1Ways, l2Bytes, l2Ways, lineBytes int) (*Hierarchy, error) {
	if lineBytes <= 0 {
		return nil, fmt.Errorf("cache: line size %dB must be positive", lineBytes)
	}
	level := func(bytes, ways int) (*Cache[struct{}], error) {
		if ways <= 0 || bytes <= 0 || bytes%(lineBytes*ways) != 0 {
			return nil, fmt.Errorf("cache: %dB of %dB lines not divisible into %d ways", bytes, lineBytes, ways)
		}
		return New[struct{}](bytes/(lineBytes*ways), ways)
	}
	l1, err := level(l1Bytes, l1Ways)
	if err != nil {
		return nil, err
	}
	l2, err := level(l2Bytes, l2Ways)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1: l1, L2: l2}, nil
}

// Result describes one hierarchy access.
type Result struct {
	L1Hit, L2Hit bool
	// MemFill is true when the line had to come from memory.
	MemFill bool
	// Victims are the lines pushed out of the L2 toward memory by this
	// access (at most a couple per access).
	Victims []Line
}

// Access performs a data access at line granularity, maintaining
// exclusivity: a hit in L2 moves the line to L1; fills from memory go to
// L1; L1 victims fall to L2; L2 victims leave the chip.
func (h *Hierarchy) Access(line uint64, write bool) Result {
	h.accesses++
	if e := h.L1.Find(line); e != nil {
		e.Dirty = e.Dirty || write
		return Result{L1Hit: true}
	}
	h.l1Misses++
	if e, ok := h.L2.Remove(line); ok {
		// Count as an L2 hit (Remove bypasses counters).
		h.L2.hits++
		return Result{L2Hit: true, Victims: h.fillL1(line, e.Dirty || write)}
	}
	h.L2.misses++
	h.l2Misses++
	return Result{MemFill: true, Victims: h.fillL1(line, write)}
}

// InsertPrefetch places a prefetched line (a super-block sibling) into the
// L2 if it is not already on-chip, returning any displaced victim.
func (h *Hierarchy) InsertPrefetch(line uint64) []Line {
	if h.Contains(line) {
		return nil
	}
	if v, ok := h.L2.Put(line, struct{}{}, false); ok {
		return []Line{v}
	}
	return nil
}

// Contains reports whether the line is anywhere on-chip.
func (h *Hierarchy) Contains(line uint64) bool {
	return h.L1.Contains(line) || h.L2.Contains(line)
}

// fillL1 inserts into L1 and cascades victims down to L2 and out.
func (h *Hierarchy) fillL1(line uint64, dirty bool) []Line {
	var out []Line
	if v1, ok := h.L1.Put(line, struct{}{}, dirty); ok {
		if v2, ok2 := h.L2.Put(v1.Key, struct{}{}, v1.Dirty); ok2 {
			out = append(out, v2)
		}
	}
	return out
}

// Stats returns (accesses, l1Misses, l2Misses).
func (h *Hierarchy) Stats() (accesses, l1Misses, l2Misses uint64) {
	return h.accesses, h.l1Misses, h.l2Misses
}
