package core

import "crypto/subtle"

// Constant-time stash scans (Params.ConstantTimeStash).
//
// Threat model (SECURITY.md): in the secure-processor setting the stash
// lookup runs on the critical path of every memory access, and an
// early-return scan makes the access latency a function of *where* (and
// whether) the block sits in the stash — a timing channel on secret
// addresses. The scans here execute a fixed number of slot visits per
// lookup — the window size, a public constant fixed at construction — and
// combine per-slot address-match masks with crypto/subtle selects, so hit
// position and hit-vs-miss change neither the instruction count nor the
// memory-touch count.
//
// What stays public: the live entry count (stash occupancy drives the
// publicly observable background-eviction schedule, Section 3.1), the scan
// window, and block sizes. Branching on those is fine; branching on
// addresses, match results or payload bytes is not.
//
// The dense entries layout evolves exactly as in legacy mode, so a
// constant-time ORAM replays bit-identically to a legacy one.

// initCT switches the stash into constant-time mode with the given fixed
// scan window (capacity in slots). The backing array carries one extra
// dump slot at index window, the masked-discard target of compactCT.
func (s *stash) initCT(window int) {
	s.ct = true
	s.window = window
	s.all = make([]Entry, window+1)
	s.entries = s.all[:0:window]
	s.deadScratch = make([]byte, s.slab.size)
}

// growCT doubles the window when the stash overflows it (possible only
// with capacity-exceeding workloads; Validate requires a bounded stash, so
// the window normally covers the worst mid-access occupancy C + Z(L+1)).
// Growth is driven by occupancy — public — and trades the fixed window for
// correctness until the next growth.
func (s *stash) growCT() {
	n := len(s.entries)
	window := 2 * s.window
	all := make([]Entry, window+1)
	copy(all, s.all[:n])
	s.all = all
	s.window = window
	s.entries = s.all[:n:window]
}

// ctLiveMask returns 1 if i indexes a live entry (i < n), else 0. Both
// values are public; the masked form keeps the per-slot instruction
// sequence uniform.
func ctLiveMask(i, n int) int {
	return subtle.ConstantTimeLessOrEq(i+1, n)
}

// ctEq64 returns 1 if a == b, in constant time, as the AND of two 32-bit
// halves (crypto/subtle exposes only 32-bit equality).
func ctEq64(a, b uint64) int {
	lo := subtle.ConstantTimeEq(int32(uint32(a)), int32(uint32(b)))
	hi := subtle.ConstantTimeEq(int32(uint32(a>>32)), int32(uint32(b>>32)))
	return lo & hi
}

// ctLess64 returns 1 if a < b (unsigned, constant time): the borrow bit of
// the subtraction a - b.
func ctLess64(a, b uint64) int {
	borrow := ((^a & b) | ((^a | b) & (a - b))) >> 63
	return int(borrow)
}

// ctFind returns the index of addr, or -1, visiting every window slot.
func (s *stash) ctFind(addr uint64) int {
	n := len(s.entries)
	full := s.all[:s.window]
	s.scanSlots += uint64(s.window)
	idx, found := -1, 0
	for i := range full {
		eq := ctEq64(full[i].Addr, addr) & ctLiveMask(i, n)
		take := eq & (found ^ 1) // first match wins, like the legacy scan
		idx = subtle.ConstantTimeSelect(take, i, idx)
		found |= eq
	}
	return idx
}

// ctReadInto copies the payload of addr into dst with a fixed-length
// masked scan; dst is untouched on a miss (callers prefill it with the
// fresh-fill pattern, so hit and miss leave no branch at all). Returns 1
// on hit, 0 on miss.
func (s *stash) ctReadInto(addr uint64, dst []byte) int {
	n := len(s.entries)
	full := s.all[:s.window]
	s.scanSlots += uint64(s.window)
	found := 0
	for i := range full {
		mask := 0
		src := s.deadScratch
		if i < n { // public liveness: occupancy is not a secret
			mask = ctEq64(full[i].Addr, addr)
			src = s.slab.At(full[i].Slot)
		}
		if len(dst) > 0 {
			subtle.ConstantTimeCopy(mask, dst, src)
		}
		found |= mask
	}
	return found
}

// ctWriteData copies data into the payload of addr with a fixed-length
// masked scan. Returns 1 on hit, 0 on miss (the caller then appends a new
// entry; occupancy changes are public).
func (s *stash) ctWriteData(addr uint64, data []byte) int {
	n := len(s.entries)
	full := s.all[:s.window]
	s.scanSlots += uint64(s.window)
	found := 0
	for i := range full {
		mask := 0
		dst := s.deadScratch
		if i < n {
			mask = ctEq64(full[i].Addr, addr)
			dst = s.slab.At(full[i].Slot)
		}
		if len(data) > 0 {
			subtle.ConstantTimeCopy(mask, dst, data)
		}
		found |= mask
	}
	return found
}

// ctRemapRange sets the leaf of every entry with lo <= Addr < hi with a
// fixed-length masked scan (the super-block group remap of realAccess).
func (s *stash) ctRemapRange(lo, hi uint64, newLeaf uint32) {
	n := len(s.entries)
	full := s.all[:s.window]
	s.scanSlots += uint64(s.window)
	for i := range full {
		e := &full[i]
		in := (ctLess64(e.Addr, lo) ^ 1) & ctLess64(e.Addr, hi) & ctLiveMask(i, n)
		e.Leaf = uint32(subtle.ConstantTimeSelect(in, int(newLeaf), int(e.Leaf)))
	}
}

// compactCT removes all entries whose placed mask is 1, preserving stable
// order exactly like compact, with a uniform per-entry memory-touch count:
// every live entry is read once and written once — kept entries to the
// write cursor, discarded entries to the dump slot at index window,
// selected by mask. The iteration count is the (public) occupancy; which
// addresses the cursor touches varies, but not how many.
func (s *stash) compactCT(placed []int) {
	n := len(s.entries)
	s.scanSlots += uint64(n)
	k := 0
	for i := 0; i < n; i++ {
		keepMask := placed[i] ^ 1
		dst := subtle.ConstantTimeSelect(keepMask, k, s.window)
		s.all[dst] = s.all[i]
		k += keepMask
	}
	s.entries = s.all[:k:s.window]
}
