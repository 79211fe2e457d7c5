package pathoram

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/shard"
)

// This file implements PartitionRandom: oblivious request routing in the
// style of Stefanov-Shi-Song partitioned ORAM. The router keeps a second
// position map — block → shard — and remaps every block to a freshly drawn
// uniform shard on each access, so the shard serving a request is a
// function of secret internal coins, never of the logical address. The
// obliviousness argument, what each mode leaks, and the protocol's padded
// batch shape are written out in SECURITY.md; the design trade-offs
// (storage, the single-op correlation leak) in DESIGN.md.
//
// Composition with AsyncEviction: both legs of the two-leg protocol ride
// the shard pool's ordinary request path, so under the staged access path
// each leg's response is released after its path read and stash merge,
// and the legs' write-backs complete on their respective shards' idle
// time. The router map is still updated only after the relocation leg's
// engine has accepted the write (logically complete; its write-back I/O
// may be pending), which is exactly the consistency point the overlay
// guarantees — a re-access fetches through the new home's pending content
// if it arrives before the flush.

// shardDrawer draws uniform shard indices from a LeafSource. LeafSource
// only draws over powers of two, so non-power-of-two shard counts use
// rejection sampling. Draw consumption depends only on the underlying
// random stream, never on the addresses being routed — the property the
// adversary-view tests rely on when they replay different address patterns
// against one seed.
type shardDrawer struct {
	mu   sync.Mutex
	src  core.LeafSource
	n    uint64
	pow2 uint64
}

func newShardDrawer(src core.LeafSource, n int) *shardDrawer {
	p := uint64(1)
	for p < uint64(n) {
		p <<= 1
	}
	return &shardDrawer{src: src, n: uint64(n), pow2: p}
}

// draw returns one uniform shard index.
func (d *shardDrawer) draw() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.drawLocked()
}

func (d *shardDrawer) drawLocked() int {
	for {
		if v := d.src.Leaf(d.pow2); v < d.n {
			return int(v)
		}
	}
}

// drawMany returns k uniform shard indices drawn under one lock, in order.
func (d *shardDrawer) drawMany(k int) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, k)
	for i := range out {
		out[i] = d.drawLocked()
	}
	return out
}

// unassignedShard marks a block that has never been routed.
const unassignedShard int32 = -1

// randomRouter is the block→shard position map behind PartitionRandom.
//
// Locking: batches take mu exclusively (they read and remap many entries
// and must not interleave with other router traffic); single operations
// take mu shared plus the address's stripe lock, so operations on
// different addresses proceed concurrently while two operations on the
// same address — whose two-leg protocols must not interleave — serialize.
// pmap itself needs no lock of its own: entry addr is only ever touched
// under addr's stripe lock or under the exclusive mu, and concurrent
// writes to distinct slice elements are race-free.
type randomRouter struct {
	mu      sync.RWMutex
	stripes [64]sync.Mutex
	pmap    []int32
	draws   *shardDrawer
}

func newRandomRouter(blocks uint64, draws *shardDrawer) *randomRouter {
	r := &randomRouter{pmap: make([]int32, blocks), draws: draws}
	for i := range r.pmap {
		r.pmap[i] = unassignedShard
	}
	return r
}

// lookup returns the block's current shard assignment. Callers hold
// addr's stripe lock or the exclusive router lock.
func (r *randomRouter) lookup(addr uint64) (shard int, assigned bool) {
	s := r.pmap[addr]
	return int(s), s != unassignedShard
}

// set records the block's new home. Same locking contract as lookup.
func (r *randomRouter) set(addr uint64, sh int) {
	r.pmap[addr] = int32(sh)
}

// randomAccess is the single-operation protocol under PartitionRandom:
//
//  1. read the block from its current home shard (assigned at the previous
//     access; a fresh uniform draw for a never-routed block);
//  2. apply the operation to the fetched value locally;
//  3. write the result to a freshly drawn uniform shard and remap.
//
// Every operation — read, write or update alike — performs exactly one
// path access on each of two uniformly distributed shards, so operation
// types are indistinguishable and the marginal shard distribution carries
// no address information. The remap is what keeps the next access to the
// same block uniform. (A bus adversary can still correlate leg 2 of one
// operation with leg 1 of a re-access of the same block; padded batches
// close that — see SECURITY.md, "random partition".)
func (s *Sharded) randomAccess(addr uint64, op shard.Op, data []byte, fn func([]byte)) ([]byte, error) {
	if err := s.checkAddr(addr); err != nil {
		return nil, err
	}
	if op == shard.OpUpdate && s.blockSize == 0 {
		return nil, fmt.Errorf("pathoram: Update requires payloads (metadata-only ORAM)")
	}
	r := s.router
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := &r.stripes[addr%uint64(len(r.stripes))]
	st.Lock()
	defer st.Unlock()

	home, assigned := r.lookup(addr)
	if !assigned {
		home = r.draws.draw()
	}
	read := shard.Request{Op: shard.OpRead, Addr: addr}
	if err := s.pool.Do(home, &read); err != nil {
		return nil, err
	}
	value := read.Out

	var out []byte
	switch op {
	case shard.OpRead:
		// The fetched copy doubles as the relocated payload; the write
		// leg's engine copies it in, so handing it to the caller is safe.
		out = value
	case shard.OpWrite:
		value = data
	case shard.OpUpdate:
		// fn runs here between the two legs, holding no shard's lock
		// (the fixed partitions run it under the owning shard's): the
		// value is already checked out of the ORAM.
		fn(value)
	}

	newHome := r.draws.draw()
	write := shard.Request{Op: shard.OpWrite, Addr: addr, Data: value}
	if err := s.pool.Do(newHome, &write); err != nil {
		// The relocation failed: the block's authoritative copy is still
		// at its old home, so the map is left untouched.
		return nil, err
	}
	r.set(addr, newHome)
	return out, nil
}

// randomBatch executes a homogeneous batch (all reads or all writes) under
// PartitionRandom. Duplicate addresses are coalesced: the block is fetched
// once, the operations apply to it in slice order (so WriteBatch keeps its
// later-write-wins guarantee), and one relocation writes the final value.
// In padded mode every request still produces exactly one leg per phase —
// duplicates contribute dummy legs on fresh uniform shards — and each
// phase's schedule is dummy-filled until every shard is touched the same
// number of times. data is nil for read batches; results is nil for write
// batches.
func (s *Sharded) randomBatch(addrs []uint64, data [][]byte, op shard.Op) ([][]byte, error) {
	for _, a := range addrs {
		if err := s.checkAddr(a); err != nil {
			return nil, err
		}
	}
	k := len(addrs)
	r := s.router
	r.mu.Lock()
	defer r.mu.Unlock()

	// The batch's coin sequence: two draws per request, consumed in
	// request order. Consumption is a function of the batch size alone,
	// so two batches of equal size consume identical coin positions no
	// matter which addresses they name.
	coins := r.draws.drawMany(2 * k)

	// Dedup in first-occurrence order.
	type block struct {
		addr    uint64
		home    int // current shard
		newHome int // fresh draw from the first occurrence
		read    shard.Request
		write   shard.Request
	}
	index := make(map[uint64]int, k)
	blocks := make([]*block, 0, k)
	var readShards []int
	var readReqs []*shard.Request
	var padShards []int // duplicate dummy legs, read phase ... write phase
	var padWriteShards []int
	for i, a := range addrs {
		d1, d2 := coins[2*i], coins[2*i+1]
		if _, seen := index[a]; seen {
			if s.padded {
				padShards = append(padShards, d1)
				padWriteShards = append(padWriteShards, d2)
			}
			continue
		}
		home, assigned := r.lookup(a)
		if !assigned {
			home = d1
		}
		b := &block{addr: a, home: home, newHome: d2}
		b.read = shard.Request{Op: shard.OpRead, Addr: a}
		index[a] = len(blocks)
		blocks = append(blocks, b)
		readShards = append(readShards, home)
		readReqs = append(readReqs, &b.read)
	}

	// Phase 1: fetch every distinct block from its current home.
	for _, sh := range padShards {
		req := &shard.Request{Op: shard.OpPadding}
		readShards = append(readShards, sh)
		readReqs = append(readReqs, req)
	}
	if s.padded {
		readShards, readReqs = s.padSchedule(readShards, readReqs, k)
	}
	if err := s.pool.DoBatch(readShards, readReqs); err != nil {
		// A failed fetch leaves every block at its old home; nothing has
		// been remapped, so the router map is still consistent.
		return nil, err
	}

	// Apply the operations locally. values[j] is block j's content after
	// the batch: for writes, applying payloads in slice order keeps the
	// later-write-wins guarantee.
	values := make([][]byte, len(blocks))
	for i, b := range blocks {
		values[i] = b.read.Out
	}
	if op == shard.OpWrite {
		for i, a := range addrs {
			values[index[a]] = data[i]
		}
	}
	var results [][]byte
	if op == shard.OpRead {
		// Each result slot gets its own copy: the first occurrence takes
		// the fetched buffer, duplicates get fresh copies so callers can
		// mutate results independently.
		results = make([][]byte, k)
		handed := make([]bool, len(blocks))
		for i, a := range addrs {
			bi := index[a]
			switch {
			case !handed[bi]:
				results[i] = values[bi]
				handed[bi] = true
			case values[bi] != nil:
				results[i] = append([]byte(nil), values[bi]...)
			}
		}
	}

	// Phase 2: relocate every distinct block to its fresh home.
	var writeShards []int
	var writeReqs []*shard.Request
	for _, b := range blocks {
		b.write = shard.Request{Op: shard.OpWrite, Addr: b.addr, Data: values[index[b.addr]]}
		writeShards = append(writeShards, b.newHome)
		writeReqs = append(writeReqs, &b.write)
	}
	for _, sh := range padWriteShards {
		req := &shard.Request{Op: shard.OpPadding}
		writeShards = append(writeShards, sh)
		writeReqs = append(writeReqs, req)
	}
	if s.padded {
		writeShards, writeReqs = s.padSchedule(writeShards, writeReqs, k)
	}
	err := s.pool.DoBatch(writeShards, writeReqs)
	for _, b := range blocks {
		if b.write.Err == nil {
			r.set(b.addr, b.newHome)
		}
	}
	if err != nil {
		return results, err
	}
	return results, nil
}

// padSchedule appends OpPadding requests so that every shard appears in
// the schedule exactly the same number of times: the larger of
// ceil(batchSize/shards) and the busiest shard's real demand. The returned
// per-shard counts are therefore equal across shards for any input, and —
// under PartitionRandom, where demand is a function of uniform coins — the
// whole shape is independent of the requested addresses.
func (s *Sharded) padSchedule(shards []int, reqs []*shard.Request, batchSize int) ([]int, []*shard.Request) {
	n := len(s.engines)
	demand := make([]int, n)
	for _, sh := range shards {
		demand[sh]++
	}
	rounds := (batchSize + n - 1) / n
	for _, d := range demand {
		if d > rounds {
			rounds = d
		}
	}
	for sh := 0; sh < n; sh++ {
		for d := demand[sh]; d < rounds; d++ {
			shards = append(shards, sh)
			reqs = append(reqs, &shard.Request{Op: shard.OpPadding})
		}
	}
	return shards, reqs
}

// paddedFixedBatch is the padded batch path for the fixed partitions
// (stripe and range): requests route to their partition-determined shards
// as usual, and the schedule is dummy-filled so that every shard is
// touched equally often. Within the batch the adversary cannot tell which
// slots carried real requests; what remains visible is the shape itself —
// max per-shard demand — which under a fixed partition is still a function
// of the addresses (see the decision table in DESIGN.md).
func (s *Sharded) paddedFixedBatch(addrs []uint64, build func(i int, local uint64) shard.Request) ([]*shard.Request, error) {
	reqs, shards, err := s.batchRequests(addrs, build)
	if err != nil {
		return nil, err
	}
	real := len(reqs)
	shards, reqs = s.padSchedule(shards, reqs, len(addrs))
	if err := s.pool.DoBatch(shards, reqs); err != nil {
		return reqs[:real], err
	}
	return reqs[:real], nil
}
