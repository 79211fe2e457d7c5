package core

import (
	"errors"
	"fmt"
)

// AccessKind tags the paths an observer sees (Params.OnPathAccess).
type AccessKind int

const (
	// KindReal is a program-initiated access.
	KindReal AccessKind = iota
	// KindDummy is a background-eviction dummy access (Section 3.1.1).
	KindDummy
	// KindPadding is a scheduler-issued padding access: a dummy path
	// access injected by the sharded serving layer to give a batch a
	// fixed, input-independent shard schedule (see Sharded's padded batch
	// mode and SECURITY.md). On the memory bus it is indistinguishable
	// from every other kind; the tag exists so tests and stats can
	// account for the padding overhead separately from background
	// eviction.
	KindPadding
)

// ErrStashOverflow reports Path ORAM failure: the stash exceeded its
// capacity with background eviction disabled (Section 2.5.1).
var ErrStashOverflow = errors.New("core: stash overflow (Path ORAM failure)")

// Access performs the paper's accessORAM(u, op, b'): one oblivious path
// access that reads or writes the block at addr. For OpRead it returns a
// copy of the block's content (fresh-fill bytes if the block was never
// written; the paper returns nil here, we return the deterministic fill for
// convenience). For OpWrite, data must be exactly BlockBytes long (or nil
// in metadata-only mode) and is copied in.
func (o *ORAM) Access(addr uint64, op Op, data []byte) ([]byte, error) {
	if err := o.checkResident(addr); err != nil {
		return nil, err
	}
	if op == OpWrite {
		if err := o.checkData(data); err != nil {
			return nil, err
		}
	}
	var result []byte
	err := o.realAccess(addr, func(newLeaf uint32) error {
		switch op {
		case OpRead:
			if o.p.BlockBytes > 0 {
				result = make([]byte, o.p.BlockBytes)
			}
			o.stashReadInto(addr, result)
		case OpWrite:
			o.stashWrite(addr, newLeaf, data)
		default:
			return fmt.Errorf("core: unknown op %d", op)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return result, o.drainBackground()
}

// ReadInto performs the same oblivious access as Access(addr, OpRead, nil)
// but writes the block's content into the caller-provided dst (which must be
// BlockBytes long, or nil in metadata-only mode) instead of allocating a
// result — the allocation-free form of the hot-path read. found reports
// whether the block had ever been written; on a miss dst holds the
// deterministic fresh-fill pattern.
func (o *ORAM) ReadInto(addr uint64, dst []byte) (found bool, err error) {
	if err := o.checkResident(addr); err != nil {
		return false, err
	}
	if err := o.checkData(dst); err != nil {
		return false, err
	}
	err = o.realAccess(addr, func(uint32) error {
		found = o.stashReadInto(addr, dst)
		return nil
	})
	if err != nil {
		return false, err
	}
	return found, o.drainBackground()
}

// Update performs a read-modify-write in a single oblivious access: fn
// mutates the block's content in place. A block that was never written is
// materialized filled with FreshFill before fn runs (the hierarchical
// position map relies on this to distinguish unassigned labels). Update
// requires a payload-carrying ORAM (BlockBytes > 0).
func (o *ORAM) Update(addr uint64, fn func(data []byte)) error {
	if o.p.BlockBytes == 0 {
		return fmt.Errorf("core: Update requires payloads (metadata-only ORAM)")
	}
	if err := o.checkResident(addr); err != nil {
		return err
	}
	err := o.realAccess(addr, func(newLeaf uint32) error {
		// The hit/miss branch is public here: whether a block exists is
		// revealed to the caller anyway (see SECURITY.md on the residual
		// Update channel); the lookup itself still uses the fixed-length
		// scan in constant-time mode.
		if i := o.stashFind(addr); i >= 0 {
			fn(o.stash.payload(i))
			return nil
		}
		d := o.stash.add(addr, newLeaf)
		o.fillFresh(d)
		fn(d)
		o.stats.BlocksInORAM++
		return nil
	})
	if err != nil {
		return err
	}
	return o.drainBackground()
}

// Load is the exclusive-ORAM read of Section 3.3.1: one oblivious access
// that removes the requested block — and, with super blocks enabled, every
// other resident member of its group (Section 3.2) — from the ORAM and
// hands them to the processor. found is false if addr was never written
// (data is then a fresh-filled buffer). The returned blocks are "checked
// out": they must come back via Store before they can be accessed again.
func (o *ORAM) Load(addr uint64) (data []byte, found bool, group []Slot, err error) {
	if err := o.checkResident(addr); err != nil {
		return nil, false, nil, err
	}
	lo, hi := o.groupRange(o.group(addr))
	err = o.realAccess(addr, func(newLeaf uint32) error {
		// A single stable sweep (extractRange) removes every resident group
		// member; an index walk over a swap-delete could skip entries when
		// removal moved an unvisited group member into the just-vacated
		// index. Copies of the extracted payloads travel to the processor
		// with the checked-out blocks, each tagged with the group's fresh
		// leaf.
		o.stash.extractRange(lo, hi, func(e Slot) {
			o.checkedOut[e.Addr] = newLeaf
			o.stats.BlocksInORAM--
			if e.Addr == addr {
				data, found = e.Data, true
			} else {
				group = append(group, e)
			}
		})
		o.checkedOut[addr] = newLeaf
		return nil
	})
	if err != nil {
		return nil, false, nil, err
	}
	if !found {
		data = o.freshData()
	}
	return data, found, group, o.drainBackground()
}

// Store returns a checked-out block to the ORAM. Because the ORAM is
// exclusive it holds no stale copy, so the block goes straight into the
// stash with its group's current leaf, read from the checkout record
// rather than the position map — no path access (Section 3.3.1).
func (o *ORAM) Store(addr uint64, data []byte) error {
	if err := o.checkAddr(addr); err != nil {
		return err
	}
	leaf, out := o.checkedOut[addr]
	if !out {
		return fmt.Errorf("core: address %d is not checked out; use Access for inclusive writes", addr)
	}
	if err := o.checkData(data); err != nil {
		return err
	}
	copy(o.stash.add(addr, leaf), data)
	delete(o.checkedOut, addr)
	o.stats.Stores++
	o.stats.BlocksInORAM++
	o.notePeak()
	if !o.p.BackgroundEviction && o.stash.len() > o.p.StashCapacity {
		return ErrStashOverflow
	}
	return o.drainBackground()
}

// CheckedOut reports whether addr is currently held by the processor.
func (o *ORAM) CheckedOut(addr uint64) bool {
	_, ok := o.checkedOut[addr]
	return ok
}

// DummyAccess reads a uniformly random path and writes back as many blocks
// as possible, without remapping anything — indistinguishable from a real
// access to an observer, and guaranteed not to grow the stash.
func (o *ORAM) DummyAccess() error { return o.randomPath(KindDummy, &o.stats.DummyAccesses) }

// PaddingAccess reads a uniformly random path and writes back as many
// blocks as possible, exactly like DummyAccess, but counts as scheduler
// padding rather than background eviction. The sharded serving layer's
// padded batch mode issues these to fill the dummy slots of a fixed-shape
// batch schedule; keeping the counter separate lets Stats report the
// padding overhead (PaddingAccesses / RealAccesses) without conflating it
// with the stash-draining dummies of Section 3.1.
func (o *ORAM) PaddingAccess() error { return o.randomPath(KindPadding, &o.stats.PaddingAccesses) }

// randomPath accesses a uniformly random path without remapping anything
// and counts it in *n.
func (o *ORAM) randomPath(kind AccessKind, n *uint64) error {
	if err := o.pathAccess(o.leaves.Leaf(o.tree.NumLeaves()), kind, nil); err != nil {
		return err
	}
	*n++
	return nil
}

// realAccess is the shared body of Access/Update/Load: position-map lookup
// + remap, then one path access during which all stash-resident group
// members are moved to the new leaf and fn applies the caller's block
// operation.
func (o *ORAM) realAccess(addr uint64, fn func(newLeaf uint32) error) error {
	g := o.group(addr)
	oldLeaf, newLeaf, err := o.pos.Access(g)
	if err != nil {
		return err
	}
	lo, hi := o.groupRange(g)
	if len(o.checkedOut) > 0 {
		// Members out in the processor follow their group to the new leaf.
		for a := lo; a < hi; a++ {
			if _, out := o.checkedOut[a]; out {
				o.checkedOut[a] = newLeaf
			}
		}
	}
	err = o.pathAccess(uint64(oldLeaf), KindReal, func() error {
		if o.stash.ct {
			o.stash.ctRemapRange(lo, hi, newLeaf)
		} else {
			for i := range o.stash.entries {
				if e := &o.stash.entries[i]; e.Addr >= lo && e.Addr < hi {
					e.Leaf = newLeaf
				}
			}
		}
		return fn(newLeaf)
	})
	if err != nil {
		return err
	}
	o.stats.RealAccesses++
	if !o.p.BackgroundEviction && o.stash.len() > o.p.StashCapacity {
		return ErrStashOverflow
	}
	return nil
}

// pathAccess is the staged protocol shared by every path access:
//
//	stage 1 (position lookup)      — done by the caller (realAccess)
//	stage 2 (path read)            — readPathIntoStash
//	stage 3 (decrypt/stash merge)  — readPathIntoStash
//	stage 4 (respond)              — mutate computes the caller's answer
//	stage 5 (write-back)           — writeBack
//
// In synchronous mode the stages run back to back, exactly steps 2 and 5
// of accessORAM. In staged mode (Params.DeferWriteBack) stage 5 computes
// the eviction placement eagerly — stash and position-map state never
// diverge from the synchronous protocol — but the write I/O is queued, so
// pathAccess (and with it the caller's response) returns without paying
// for serialization, re-encryption, authentication or the store write.
func (o *ORAM) pathAccess(leaf uint64, kind AccessKind, mutate func() error) error {
	if err := o.readPathIntoStash(leaf); err != nil {
		return err
	}
	if mutate != nil {
		if err := mutate(); err != nil {
			return err
		}
	}
	if err := o.writeBack(leaf); err != nil {
		return err
	}
	// Peak is the paper's notion of occupancy: blocks resident in the
	// stash after the access completes (Figure 3 samples exactly this).
	// Blocks streaming through during a path read/write are not counted.
	o.notePeak()
	if o.p.OnPathAccess != nil {
		o.p.OnPathAccess(leaf, kind)
	}
	return nil
}

// readPathIntoStash performs stages 2 and 3: read every real block on the
// path to leaf into the stash, in root-to-leaf bucket order. A bucket
// whose live content sits in a pending write-back (the overlay) is moved
// out of the pending entry instead, in its level's place, so every block
// keeps exactly one live home and the stash evolves bit-identically to
// the synchronous protocol.
func (o *ORAM) readPathIntoStash(leaf uint64) error {
	o.sink = pathSink{o: o, leaf: leaf}
	if len(o.overlay) > 0 {
		o.sink.skip = o.skipBuf
		for d := range o.skipBuf {
			_, o.skipBuf[d] = o.overlay[o.tree.PathBucket(leaf, d)]
		}
	}
	if err := o.store.ReadPathInto(leaf, o.sink.skip, &o.sink); err != nil {
		return err
	}
	o.sink.mergeSkipped(o.tree.Levels())
	return nil
}

// pathSink is the stash's BlockSink for one path read; it merges each
// skipped level from the overlay before any block below it.
type pathSink struct {
	o    *ORAM
	leaf uint64
	skip []bool
	next int // first level not yet merged from the overlay
}

// Block implements BlockSink.
func (s *pathSink) Block(level int, addr uint64, leaf uint32) []byte {
	s.mergeSkipped(level)
	return s.o.stash.add(addr, leaf)
}

// mergeSkipped moves every skipped level above level into the stash and
// empties its pending bucket, which the overlay keeps serving until this
// access's own write-back supersedes it.
func (s *pathSink) mergeSkipped(level int) {
	for ; s.skip != nil && s.next < level; s.next++ {
		if !s.skip[s.next] {
			continue
		}
		ref := s.o.overlay[s.o.tree.PathBucket(s.leaf, s.next)]
		pb := ref.entry.Buckets[ref.level]
		for _, e := range pb {
			copy(s.o.stash.add(e.Addr, e.Leaf), ref.entry.Slab.At(e.Slot))
		}
		ref.entry.Buckets[ref.level] = pb[:0]
	}
}

// writeBack performs stage 5: place each stash block as deep on the path
// to leaf as its own leaf allows (the ORAM "shuffle" of Section 2.1,
// step 5), then write the path — immediately in synchronous mode, or onto
// the deferred queue in staged mode.
func (o *ORAM) writeBack(leaf uint64) error {
	l := o.tree.LeafLevel()
	for d := range o.byDepth {
		o.byDepth[d] = o.byDepth[d][:0]
	}
	for i := range o.stash.entries {
		d := o.tree.DeepestLevel(uint64(o.stash.entries[i].Leaf), leaf)
		o.byDepth[d] = append(o.byDepth[d], i)
	}
	placed := o.placedBuf(o.stash.len())
	buckets := o.path.Buckets
	for d := range buckets {
		buckets[d] = buckets[d][:0]
	}
	pool := o.poolBuf[:0]
	for d := l; d >= 0; d-- {
		if len(o.byDepth[d]) > 0 {
			pool = append(pool, o.byDepth[d]...)
		}
		for len(buckets[d]) < o.p.Z && len(pool) > 0 {
			idx := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			buckets[d] = append(buckets[d], o.stash.entries[idx])
			placed[idx] = 1
		}
	}
	o.poolBuf = pool[:0]
	o.path.Slab = o.stash.slab
	if o.p.DeferWriteBack {
		if err := o.deferWriteBack(leaf); err != nil {
			return err
		}
	} else if err := o.store.WritePathFrom(leaf, &o.path); err != nil {
		return err
	}
	// The placed payloads are written (or copied) now: free their slots.
	for _, b := range o.path.Buckets {
		for _, e := range b {
			o.stash.release(e)
		}
	}
	if o.stash.ct {
		o.stash.compactCT(placed)
	} else {
		o.stash.compact(placed)
	}
	return nil
}

// drainBackground runs the inline drain and notes its length.
func (o *ORAM) drainBackground() error { return o.noteRun(o.bg.Drain()) }

// noteRun records a completed drain of run dummy accesses.
func (o *ORAM) noteRun(run int, err error) error {
	if err == nil && run > o.stats.MaxDummyRun {
		o.stats.MaxDummyRun = run
	}
	return err
}

// ---------- staged mode: deferred write-backs and background work ----------

// pendingPath is one computed-but-unwritten path write-back, the level-d
// bucket's i-th payload in slot d*Z+i of its own slab. Its buckets are
// authoritative until the flush: later reads of an overlaid bucket move
// the blocks out (emptying the slice), so a block has one live copy.
type pendingPath struct {
	leaf uint64
	Path
}

// overlayRef points a flat bucket index at the pending entry (and level
// within it) holding the bucket's live content.
type overlayRef struct {
	entry *pendingPath
	level int
}

// deferredWriter lets a store distinguish write-backs issued from the
// deferred FIFO — the modeled memory controller's write buffer — from
// inline stage-5 writes. TimedStore implements it to tag the charge;
// stores that don't care (every plain PathStore) simply receive WritePathFrom.
type deferredWriter interface {
	WritePathDeferred(leaf uint64, p *Path) error
}

// BackgroundWork reports what one StepBackground call did.
type BackgroundWork int

const (
	// BgNone: no deferred write-backs pending and the stash is already at
	// or below the idle low-water mark.
	BgNone BackgroundWork = iota
	// BgWriteBack: one pending path write-back was completed.
	BgWriteBack
	// BgEviction: one background-eviction dummy access was issued.
	BgEviction
)

// deferWriteBack queues the just-computed eviction (o.path) for the
// path to leaf instead of writing it. If the queue is full the oldest
// entry is completed first, bounding both queue length and pinned memory.
// Entries are recycled through a freelist (the staged hot path must not
// generate steady-state garbage the synchronous path does not).
func (o *ORAM) deferWriteBack(leaf uint64) error {
	for o.PendingWriteBacks() >= o.maxDefer {
		if err := o.completeOldestWriteBack(); err != nil {
			return err
		}
	}
	var e *pendingPath
	if n := len(o.freePending); n > 0 {
		e = o.freePending[n-1]
		o.freePending[n-1] = nil
		o.freePending = o.freePending[:n-1]
		e.leaf = leaf
	} else {
		e = &pendingPath{leaf: leaf, Path: Path{
			Buckets: make([][]Entry, len(o.path.Buckets)),
			Slab:    NewSlab(len(o.path.Buckets)*o.p.Z, o.p.BlockBytes)}}
	}
	// Copy the eviction into the entry's own slab: the stash slots it
	// occupies go back on the free stack as soon as this call returns.
	for d, b := range o.path.Buckets {
		e.Buckets[d] = e.Buckets[d][:0]
		for i, s := range b {
			slot := int32(d*o.p.Z + i)
			copy(e.Slab.At(slot), o.path.Slab.At(s.Slot))
			e.Buckets[d] = append(e.Buckets[d], Entry{Addr: s.Addr, Leaf: s.Leaf, Slot: slot})
		}
	}
	o.pending = append(o.pending, e)
	for d := range e.Buckets {
		o.overlay[o.tree.PathBucket(leaf, d)] = overlayRef{entry: e, level: d}
	}
	o.stats.DeferredWriteBacks++
	if n := o.PendingWriteBacks(); n > o.stats.PendingWriteBackPeak {
		o.stats.PendingWriteBackPeak = n
	}
	return nil
}

// completeOldestWriteBack pops the FIFO head and performs its store write.
// Overlay entries that still point at the flushed path are released: the
// store copy is fresh from here on. (An overlay entry superseded by a
// later pending path stays, so reads keep seeing the newest content.)
func (o *ORAM) completeOldestWriteBack() error {
	e := o.pending[o.pendingHead]
	var err error
	if o.deferredStore != nil {
		err = o.deferredStore.WritePathDeferred(e.leaf, &e.Path)
	} else {
		err = o.store.WritePathFrom(e.leaf, &e.Path)
	}
	if err != nil {
		return err
	}
	// Ring pop: advance the head instead of reslicing, so the backing array
	// is reused instead of regrown; reset once the ring empties.
	o.pending[o.pendingHead] = nil
	o.pendingHead++
	if o.pendingHead == len(o.pending) {
		o.pending = o.pending[:0]
		o.pendingHead = 0
	}
	for d := range e.Buckets {
		b := o.tree.PathBucket(e.leaf, d)
		if ref, ok := o.overlay[b]; ok && ref.entry == e {
			delete(o.overlay, b)
		}
	}
	o.freePending = append(o.freePending, e)
	return nil
}

// StepBackground performs one unit of deferred work (Evictor.Step).
// Shards' idle pumps call it between requests; BgNone means there is
// nothing useful left to do.
func (o *ORAM) StepBackground(allowEviction bool) (BackgroundWork, error) {
	w, err := o.bg.Step(allowEviction)
	if w == BgEviction && err == nil {
		o.stats.IdleEvictions++
	}
	return w, err
}

// Flush completes every pending write-back and fully drains background
// eviction (Evictor.Flush).
func (o *ORAM) Flush() error { return o.noteRun(o.bg.Flush()) }

func (o *ORAM) groupRange(g uint64) (lo, hi uint64) {
	s := uint64(o.p.GroupSize())
	lo = g * s
	hi = lo + s
	if hi > o.p.Blocks {
		hi = o.p.Blocks
	}
	return lo, hi
}

func (o *ORAM) freshData() []byte {
	if o.p.BlockBytes == 0 {
		return nil
	}
	d := make([]byte, o.p.BlockBytes)
	if o.p.FreshFill != 0 {
		for i := range d {
			d[i] = o.p.FreshFill
		}
	}
	return d
}

func (o *ORAM) checkData(data []byte) error {
	if o.p.BlockBytes == 0 {
		return nil // metadata-only: payloads ignored
	}
	if len(data) != o.p.BlockBytes {
		return fmt.Errorf("core: data length %d, want block size %d", len(data), o.p.BlockBytes)
	}
	return nil
}

func (o *ORAM) notePeak() {
	if n := o.stash.len(); n > o.stats.StashPeak {
		o.stats.StashPeak = n
	}
}

// placedBuf returns a zeroed placement mask of length n, reusing prior
// capacity. Mask form (0/1 ints, not bools) so the constant-time compaction
// can consume it without branching on its values.
func (o *ORAM) placedBuf(n int) []int {
	if cap(o.placed) < n {
		o.placed = make([]int, n)
	}
	o.placed = o.placed[:n]
	for i := range o.placed {
		o.placed[i] = 0
	}
	return o.placed
}

// stashFind dispatches to the fixed-window scan in constant-time mode.
func (o *ORAM) stashFind(addr uint64) int {
	if o.stash.ct {
		return o.stash.ctFind(addr)
	}
	return o.stash.find(addr)
}

// stashReadInto writes the stash-resident content of addr into dst, or the
// fresh-fill pattern on a miss, and reports whether the block existed. In
// constant-time mode dst is prefilled and then masked-copied over, so hit
// and miss execute identically.
func (o *ORAM) stashReadInto(addr uint64, dst []byte) bool {
	if o.stash.ct {
		o.fillFresh(dst)
		return o.stash.ctReadInto(addr, dst) == 1
	}
	if i := o.stash.find(addr); i >= 0 {
		copy(dst, o.stash.payload(i))
		return true
	}
	o.fillFresh(dst)
	return false
}

// stashWrite replaces the content of addr in the stash, inserting a new
// entry (mapped to leaf) if the block is absent. Occupancy changes are
// public, so the append-on-miss branch is fine in constant-time mode; the
// lookup itself is the fixed-length masked scan there.
func (o *ORAM) stashWrite(addr uint64, leaf uint32, data []byte) {
	if o.stash.ct {
		if o.stash.ctWriteData(addr, data) == 0 {
			copy(o.stash.add(addr, leaf), data)
			o.stats.BlocksInORAM++
		}
		return
	}
	if i := o.stash.find(addr); i >= 0 {
		copy(o.stash.payload(i), data)
		return
	}
	copy(o.stash.add(addr, leaf), data)
	o.stats.BlocksInORAM++
}

// fillFresh sets every byte of d to the fresh-fill pattern.
func (o *ORAM) fillFresh(d []byte) {
	if o.p.FreshFill == 0 {
		for i := range d {
			d[i] = 0
		}
		return
	}
	for i := range d {
		d[i] = o.p.FreshFill
	}
}
