package core

// stash is the ORAM interface's on-chip block buffer (the paper's term for
// the "local cache" of the original Path ORAM paper). It is a small flat
// slice: with realistic capacities (~200 blocks, Section 4.1.2) linear
// scans beat map overhead and keep iteration deterministic.
//
// Memory discipline (see DESIGN.md "Hot-path memory discipline"): every
// payload the stash holds lives in one slot of its slab, which add hands
// out and release returns to the free stack, so the steady-state access
// path allocates nothing.
//
// With ct set (Params.ConstantTimeStash) the lookup scans run in fixed
// length over a preallocated window using crypto/subtle selects — see
// stash_ct.go. The dense entries layout and its evolution are identical in
// both modes; only how the scans execute differs.
type stash struct {
	// entries is the dense live view. In constant-time mode it is a
	// prefix of the preallocated backing `all` (capacity = window).
	entries []Entry
	slab    Slab
	// free stacks the unused slab slots (none in metadata-only mode).
	free []int32

	// Constant-time mode state (stash_ct.go). window is the fixed scan
	// length; all is the backing array with one extra dump slot at index
	// window for masked discards; deadScratch absorbs masked copies aimed
	// at dead slots.
	ct          bool
	window      int
	all         []Entry
	deadScratch []byte

	// scanSlots counts slots examined by constant-time scans; tests use it
	// to pin the iteration count as a function of capacity alone.
	scanSlots uint64
}

func (s *stash) len() int { return len(s.entries) }

// grow gives the slab room for at least n slots, keeping the payloads of
// the slots in use.
func (s *stash) grow(n int) {
	old := len(s.slab.buf) / s.slab.size
	slab := NewSlab(max(n, 2*old), s.slab.size)
	copy(slab.buf, s.slab.buf)
	for i := len(slab.buf)/slab.size - 1; i >= old; i-- {
		s.free = append(s.free, int32(i))
	}
	s.slab = slab
}

// payload returns the slab slot of entry i.
func (s *stash) payload(i int) []byte { return s.slab.At(s.entries[i].Slot) }

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

// add appends a block and returns its slab slot (nil in metadata-only
// mode), whose contents are unspecified until the caller fills them.
func (s *stash) add(addr uint64, leaf uint32) []byte {
	if s.ct && len(s.entries) == cap(s.entries) {
		s.growCT()
	}
	var slot int32
	if s.slab.size > 0 {
		if len(s.free) == 0 {
			s.grow(1)
		}
		slot = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	}
	s.entries = append(s.entries, Entry{Addr: addr, Leaf: leaf, Slot: slot})
	return s.slab.At(slot)
}

// release returns a removed entry's slot to the free stack.
func (s *stash) release(e Entry) {
	if s.slab.size > 0 {
		s.free = append(s.free, e.Slot)
	}
}

// extractRange removes every entry with lo <= Addr < hi, passing each
// with a copy of its payload to fn in stash order; a stable sweep cannot
// skip or revisit entries as a swap-delete loop can.
func (s *stash) extractRange(lo, hi uint64, fn func(Slot)) {
	keep := s.entries[:0]
	for _, e := range s.entries {
		if e.Addr >= lo && e.Addr < hi {
			var data []byte
			if s.slab.size > 0 {
				data = append([]byte(nil), s.slab.At(e.Slot)...)
			}
			fn(Slot{Addr: e.Addr, Leaf: e.Leaf, Data: data})
			s.release(e)
			continue
		}
		keep = append(keep, e)
	}
	s.entries = keep
}

// compact removes all entries whose placed mask (parallel to entries) is
// 1 and keeps the rest in stable order; writeBack released their slots.
func (s *stash) compact(placed []int) {
	keep := s.entries[:0]
	for i := range s.entries {
		if placed[i] == 0 {
			keep = append(keep, s.entries[i])
		}
	}
	s.entries = keep
}
