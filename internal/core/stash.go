package core

// stash is the ORAM interface's on-chip block buffer (the paper's term for
// the "local cache" of the original Path ORAM paper). It is a small flat
// slice: with realistic capacities (~200 blocks, Section 4.1.2) linear
// scans beat map overhead and keep iteration deterministic.
//
// Memory discipline (see DESIGN.md "Hot-path memory discipline"): the stash
// owns every payload buffer it holds. Blocks enter by copy (addCopy) — the
// source may be a store decode arena or a pending write-back bucket, both
// of which recycle their bytes — and payloads of evicted blocks are
// recycled through an internal freelist, so the steady-state access path
// allocates nothing. The only buffers that escape are those handed to the
// processor by the exclusive Load interface (extractRange), which
// leave stash ownership for good.
//
// With ct set (Params.ConstantTimeStash) the lookup scans run in fixed
// length over a preallocated window using crypto/subtle selects — see
// stash_ct.go. The dense entries layout and its evolution are identical in
// both modes; only how the scans execute differs.
type stash struct {
	// entries is the dense live view. In constant-time mode it is a
	// prefix of the preallocated backing `all` (capacity = window).
	entries []Slot
	// free recycles payload buffers (blockBytes each) of evicted blocks.
	free       [][]byte
	blockBytes int

	// Constant-time mode state (stash_ct.go). window is the fixed scan
	// length; all is the backing array with one extra dump slot at index
	// window for masked discards; deadScratch absorbs masked copies aimed
	// at dead slots.
	ct          bool
	window      int
	all         []Slot
	deadScratch []byte

	// scanSlots counts slots examined by constant-time scans; tests use it
	// to pin the iteration count as a function of capacity alone.
	scanSlots uint64
}

func (s *stash) len() int { return len(s.entries) }

// find returns the index of addr, or -1 (legacy early-return scan; the
// constant-time mode uses ctFind).
func (s *stash) find(addr uint64) int {
	for i := range s.entries {
		if s.entries[i].Addr == addr {
			return i
		}
	}
	return -1
}

// take returns a payload buffer of blockBytes (nil in metadata-only mode),
// reusing the freelist when possible. The contents are unspecified.
func (s *stash) take() []byte {
	if s.blockBytes == 0 {
		return nil
	}
	if n := len(s.free); n > 0 {
		buf := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return buf
	}
	return make([]byte, s.blockBytes)
}

// recycle returns a payload buffer to the freelist. Only buffers sized for
// this stash are accepted; anything else is left to the collector.
func (s *stash) recycle(buf []byte) {
	if s.blockBytes == 0 || cap(buf) < s.blockBytes {
		return
	}
	s.free = append(s.free, buf[:s.blockBytes])
}

// insert appends a block, taking ownership of data (which must be a
// blockBytes buffer, or nil in metadata-only mode).
func (s *stash) insert(addr uint64, leaf uint32, data []byte) {
	if s.ct && len(s.entries) == cap(s.entries) {
		s.growCT()
	}
	s.entries = append(s.entries, Slot{Addr: addr, Leaf: leaf, Data: data})
}

// addCopy inserts a block by copying data into a stash-owned buffer. The
// caller keeps ownership of data; this is the boundary crossing for blocks
// arriving from store decode arenas and pending write-back buckets. The
// caller guarantees addr is not already present (the Path ORAM invariant
// makes tree and stash disjoint).
func (s *stash) addCopy(addr uint64, leaf uint32, data []byte) {
	buf := s.take()
	copy(buf, data)
	s.insert(addr, leaf, buf)
}

// extractRange removes every entry with lo <= Addr < hi, passing each to
// fn in stash order; the payloads leave stash ownership. A single stable
// left-to-right sweep cannot skip or revisit entries the way a swap-delete
// loop can when removal reorders the tail.
func (s *stash) extractRange(lo, hi uint64, fn func(Slot)) {
	keep := s.entries[:0]
	for i := range s.entries {
		e := s.entries[i]
		if e.Addr >= lo && e.Addr < hi {
			fn(e)
			continue
		}
		keep = append(keep, e)
	}
	for i := len(keep); i < len(s.entries); i++ {
		s.entries[i] = Slot{}
	}
	s.entries = keep
}

// compact removes all entries whose placed mask (parallel to entries) is
// 1 and keeps the rest in stable order. The payload buffers of placed
// entries are NOT recycled here: they are still referenced from the
// write-back bucket buffers; writeBack recycles them once the store (or
// the pending copy) has consumed them.
func (s *stash) compact(placed []int) {
	keep := s.entries[:0]
	for i := range s.entries {
		if placed[i] == 0 {
			keep = append(keep, s.entries[i])
		}
	}
	// Zero the tail so stale entries don't pin payload buffers.
	for i := len(keep); i < len(s.entries); i++ {
		s.entries[i] = Slot{}
	}
	s.entries = keep
}
