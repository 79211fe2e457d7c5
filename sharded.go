package pathoram

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/encrypt"
	"repro/internal/membus"
	"repro/internal/shard"
)

// Partition selects how Sharded maps logical addresses to shards.
type Partition int

const (
	// PartitionStripe routes address a to shard a mod N with local address
	// a div N. Sequential and strided scans spread evenly over all shards,
	// which is the right default for throughput; the cost is that logically
	// adjacent addresses land in different trees, so per-shard super blocks
	// no longer capture the program's spatial locality.
	PartitionStripe Partition = iota
	// PartitionRange gives each shard one contiguous slice of the address
	// space. Adjacency survives inside a shard — super-block prefetching
	// keeps its meaning — but a sequential scan hammers one shard at a
	// time.
	PartitionRange
	// PartitionRandom routes obliviously: a second position map assigns
	// every block a uniformly random shard, remapped to a fresh uniform
	// draw on each access (Stefanov-Shi-Song-style partitioned ORAM), so
	// the shard serving a request depends only on secret coins, never on
	// the address. Every access becomes two path accesses (fetch from the
	// current home, relocate to the new one), and every shard must be
	// sized for the whole address space — the storage and bandwidth price
	// of hiding the routing. Combine with Spec.Padded for
	// batches whose shard schedule has a fixed, input-independent shape;
	// see SECURITY.md for exactly what each combination hides.
	PartitionRandom
)

// partitionNames spells Partition as text (-partition).
var partitionNames = []string{"stripe", "range", "random"}

func (p Partition) String() string                { return enumName(partitionNames, p) }
func (p Partition) MarshalText() ([]byte, error)  { return []byte(p.String()), nil }
func (p *Partition) UnmarshalText(b []byte) error { return parseEnum(partitionNames, b, p) }

// Sharded is a concurrency-safe ORAM serving layer. It partitions the
// logical address space over independent Path ORAM shards, each owned
// exclusively by a lock, and runs every request on its caller's goroutine:
// a single operation (Read/Write/Update) takes its shard's lock and runs,
// a batch (ReadBatch/WriteBatch) runs one shard's share on the caller and
// the others' alongside on goroutines of their own, then joins.
//
// All methods are safe for concurrent use by any number of goroutines.
//
// Obliviousness: the shard selector is a fixed public function of the
// address, and within each shard the unmodified Path ORAM invariant holds —
// every access touches a freshly drawn uniform path, so each shard's leaf
// sequence is uniform and independent of the program's access pattern
// (Stefanov et al.: disjoint trees are accessed independently without
// weakening obliviousness). What the adversary additionally sees compared
// to one big tree is which shard serves each request, i.e. the timing and
// per-shard mix of traffic; see DESIGN.md for the precise statement and the
// deployment guidance (uniform partitioning, padding batches with dummy
// accesses when request-to-shard routing itself must be hidden).
type Sharded struct {
	engines   []*ORAM
	pool      *shard.Pool
	blocks    uint64
	blockSize int
	n         uint64
	partition Partition
	padded    bool
	// async flushes each shard before a snapshot (AsyncEviction).
	async bool
	// router is the block→shard position map (PartitionRandom only).
	router *randomRouter
	// padDraws picks the uniform target shard of a single PaddingAccess.
	padDraws *shardDrawer
	// bgCursor rotates StepBackground's scan start across shards.
	bgCursor atomic.Uint64
	// bus is the shared memory-channel scheduler (BackendDRAM only).
	bus *membus.Bus
	// Range-partition geometry: the first `big` shards hold base+1 blocks,
	// the rest hold base.
	base, big uint64
}

// shardEngine presents an engine to the request scheduler, whose Load
// speaks core.Slot (engine-local addresses; the serving layer translates
// them) where the public ORAM.Load speaks Block. Everything else is
// promoted.
type shardEngine struct{ *ORAM }

func (e shardEngine) Load(addr uint64) ([]byte, bool, []core.Slot, error) {
	return e.inner.Load(addr)
}

// NewSharded builds the serving layer described by spec — Open returns
// the same value typed as Client. Per-shard derivations keep the shards
// cryptographically and statistically independent: shard i encrypts under
// AES_Key('S', i) (sharing one key would reuse one-time pads, since every
// shard numbers its buckets from zero) and owns a generator seeded from a
// draw on Rand (math/rand generators are not goroutine-safe; sharing one
// across shards would be a data race). If construction fails, every tree
// file already opened is closed again.
func NewSharded(spec Spec) (_ *Sharded, err error) {
	p, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	n := uint64(p.Shards)
	s := &Sharded{
		blocks:    p.Blocks,
		blockSize: p.BlockSize,
		n:         n,
		partition: p.Partition,
		padded:    p.Padded,
		async:     p.AsyncEviction,
		bus:       p.bus,
		base:      p.Blocks / n,
		big:       p.Blocks % n,
	}
	defer func() {
		if err != nil {
			for _, e := range s.engines {
				e.Close()
			}
		}
	}()
	var keys [][]byte
	if p.Encryption != EncryptNone {
		if keys, err = deriveShardKeys(p.Key, p.Shards); err != nil {
			return nil, err
		}
	}
	rands, routerRand, padRand := p.streams()
	engines := make([]shard.Engine, p.Shards)
	for i := range engines {
		// Shard i's trees live under Dir as "shard<i>[-l<level>]" so shards
		// never collide in one directory.
		seed := engineSeed{shard: i, blocks: s.shardBlocks(i), rand: rands[i], name: fmt.Sprintf("shard%d", i)}
		if keys != nil {
			seed.key = keys[i]
		}
		e, err := p.newEngine(seed)
		if err != nil {
			return nil, fmt.Errorf("pathoram: building shard %d: %w", i, err)
		}
		s.engines = append(s.engines, e)
		engines[i] = shardEngine{e}
	}
	// Only an untimed shard gets an idle pump: a timed one's write buffer
	// drains when full, at Flush and at snapshots — points in its own
	// request stream — so its modeled time is a function of the seed.
	if s.pool, err = shard.NewPool(engines, shard.Config{IdleWork: p.AsyncEviction && p.bus == nil}); err != nil {
		return nil, err
	}
	if p.Partition == PartitionRandom {
		s.router = newRandomRouter(p.Blocks, newShardDrawer(leafSource(routerRand), p.Shards))
	}
	// The single-operation PaddingAccess targets a uniformly drawn shard.
	s.padDraws = newShardDrawer(leafSource(padRand), p.Shards)
	return s, nil
}

// Key-derivation domains. Every construction that expands the master key
// into subkeys must use its own tag here: the tag is what guarantees that
// no two structures ever encrypt under the same subkey — and therefore
// never share counter-scheme one-time pads — even when they reuse indices
// (shard 1 vs hierarchy level 1) and both number buckets from zero.
const (
	domainHierarchy byte = 'H' // per-level keys of the recursive position map
	domainShard     byte = 'S' // per-shard keys of the sharded serving layer
	domainTenant    byte = 'T' // per-tenant master keys of the oram-server service
)

// DeriveTenantKey expands a 16-byte service master key into the
// independent master key for tenant index i, in the same domain-separated
// KDF the sharded and hierarchical constructions use ('T' tag). Each
// tenant's ORAM then derives its own per-shard/per-level subkeys from
// that tenant master, so no two tenants — and no two structures within a
// tenant — ever encrypt under the same key. cmd/oram-server assigns
// indices monotonically as tenants are created.
func DeriveTenantKey(master []byte, index uint64) ([]byte, error) {
	if len(master) != encrypt.KeySize {
		return nil, fmt.Errorf("pathoram: service master key is %d bytes, want %d", len(master), encrypt.KeySize)
	}
	return deriveSubKey(master, domainTenant, index)
}

// deriveSubKey expands the 16-byte master key into an independent subkey
// with one AES block: AES_master(index ‖ 0… ‖ domain). AES as a PRP:
// distinct (domain, index) inputs give distinct pseudorandom keys, none
// equal to the master.
func deriveSubKey(master []byte, domain byte, index uint64) ([]byte, error) {
	blk, err := aes.NewCipher(master)
	if err != nil {
		return nil, fmt.Errorf("pathoram: key derivation: %w", err)
	}
	var in [16]byte
	binary.LittleEndian.PutUint64(in[:8], index)
	in[15] = domain
	k := make([]byte, 16)
	blk.Encrypt(k, in[:])
	return k, nil
}

// deriveShardKeys derives one independent key per shard from the master.
func deriveShardKeys(master []byte, n int) ([][]byte, error) {
	keys := make([][]byte, n)
	for i := range keys {
		k, err := deriveSubKey(master, domainShard, uint64(i))
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// shardBlocks returns the number of logical addresses shard i serves.
func (s *Sharded) shardBlocks(i int) uint64 {
	switch s.partition {
	case PartitionRandom:
		// Any block can live on any shard at any time, so every shard is
		// sized for the full logical address space.
		return s.blocks
	case PartitionRange:
		if uint64(i) < s.big {
			return s.base + 1
		}
		return s.base
	default: // PartitionStripe
		return (s.blocks - uint64(i) + s.n - 1) / s.n
	}
}

// shardOf maps a logical address to its shard and shard-local address.
func (s *Sharded) shardOf(addr uint64) (int, uint64) {
	if s.partition == PartitionRange {
		cut := s.big * (s.base + 1)
		if addr < cut {
			return int(addr / (s.base + 1)), addr % (s.base + 1)
		}
		rest := addr - cut
		return int(s.big + rest/s.base), rest % s.base
	}
	return int(addr % s.n), addr / s.n
}

// globalOf inverts shardOf: the logical address of shard sh's local addr.
func (s *Sharded) globalOf(sh int, local uint64) uint64 {
	if s.partition == PartitionRange {
		if uint64(sh) < s.big {
			return uint64(sh)*(s.base+1) + local
		}
		return s.big*(s.base+1) + (uint64(sh)-s.big)*s.base + local
	}
	return local*s.n + uint64(sh)
}

func (s *Sharded) checkAddr(addr uint64) error {
	if addr >= s.blocks {
		return fmt.Errorf("pathoram: address %d out of range [0,%d)", addr, s.blocks)
	}
	return nil
}

// NumShards returns the number of independent ORAM shards.
func (s *Sharded) NumShards() int { return len(s.engines) }

// Blocks returns the total logical address-space size.
func (s *Sharded) Blocks() uint64 { return s.blocks }

// NumORAMs returns the number of ORAMs one access walks within its shard:
// 1 for flat shards, the recursion depth H for hierarchical shards (the
// deepest shard, should the partition sizes make chains differ).
func (s *Sharded) NumORAMs() int {
	max := 0
	for _, e := range s.engines {
		if n := e.NumORAMs(); n > max {
			max = n
		}
	}
	return max
}

// OnChipPositionMapBytes returns the summed on-chip position-map
// footprint across shards: the whole map per shard for flat shards, the
// final (smallest) map per shard for hierarchical ones. Fixed at
// construction, so it reads without serializing against traffic.
func (s *Sharded) OnChipPositionMapBytes() uint64 {
	var total uint64
	for _, e := range s.engines {
		total += e.OnChipPositionMapBytes()
	}
	return total
}

// OnChipBytes returns the summed trusted-memory provision across shards:
// every shard's on-chip position map plus every stash bound (one stash per
// tree — a hierarchical shard contributes one per level). Sharding
// multiplies the stash term by N; the per-shard position maps shrink, so
// the posmap term is roughly constant for flat shards and bounded per
// shard for recursive ones. Fixed at construction, so it reads without
// serializing against traffic.
func (s *Sharded) OnChipBytes() uint64 {
	var total uint64
	for _, e := range s.engines {
		total += e.OnChipBytes()
	}
	return total
}

// Read returns a copy of the block at addr (zero-filled if never written).
// One oblivious path access on the owning shard — two under
// PartitionRandom (fetch from the current home, relocate to a fresh one).
func (s *Sharded) Read(addr uint64) ([]byte, error) {
	if s.partition == PartitionRandom {
		return s.randomAccess(addr, shard.OpRead, nil, nil)
	}
	if err := s.checkAddr(addr); err != nil {
		return nil, err
	}
	sh, local := s.shardOf(addr)
	req := shard.Request{Op: shard.OpRead, Addr: local}
	err := s.pool.Do(sh, &req)
	return req.Out, err
}

// ReadInto reads the block at addr into the caller-provided dst (BlockSize
// bytes), avoiding the per-read result allocation of Read — a steady-state
// ReadInto allocates nothing on the serving path. found reports whether the block was ever written. Under
// PartitionRandom the two-leg protocol runs as usual and the fetched value
// is copied into dst; found is then always true — the relocation leg
// materializes every block it touches, so the router cannot distinguish a
// never-written block after its first access.
func (s *Sharded) ReadInto(addr uint64, dst []byte) (bool, error) {
	if s.blockSize > 0 && len(dst) != s.blockSize {
		return false, fmt.Errorf("pathoram: dst length %d, want block size %d", len(dst), s.blockSize)
	}
	if s.partition == PartitionRandom {
		out, err := s.randomAccess(addr, shard.OpRead, nil, nil)
		if err != nil {
			return false, err
		}
		copy(dst, out)
		return true, nil
	}
	if err := s.checkAddr(addr); err != nil {
		return false, err
	}
	sh, local := s.shardOf(addr)
	req := shard.Request{Op: shard.OpRead, Addr: local, Dst: dst}
	err := s.pool.Do(sh, &req)
	return req.Found, err
}

// Write replaces the block at addr. One oblivious path access on the
// owning shard — two under PartitionRandom, making writes
// indistinguishable from reads on the shard schedule. The caller keeps
// ownership of data (Write returns only after the shard has copied it in).
func (s *Sharded) Write(addr uint64, data []byte) error {
	if s.partition == PartitionRandom {
		_, err := s.randomAccess(addr, shard.OpWrite, data, nil)
		return err
	}
	if err := s.checkAddr(addr); err != nil {
		return err
	}
	sh, local := s.shardOf(addr)
	return s.pool.Do(sh, &shard.Request{Op: shard.OpWrite, Addr: local, Data: data})
}

// Update applies fn to the block's content in place in a single oblivious
// read-modify-write access (a fetch-relocate pair under PartitionRandom).
// fn runs on the caller's goroutine while it holds the owning shard's
// lock, so it should not block, and calling back into the same shard of
// this Sharded from fn deadlocks.
func (s *Sharded) Update(addr uint64, fn func(data []byte)) error {
	if s.partition == PartitionRandom {
		_, err := s.randomAccess(addr, shard.OpUpdate, nil, fn)
		return err
	}
	if err := s.checkAddr(addr); err != nil {
		return err
	}
	sh, local := s.shardOf(addr)
	return s.pool.Do(sh, &shard.Request{Op: shard.OpUpdate, Addr: local, Fn: fn})
}

// errRandomExclusive documents the one Client operation the oblivious
// routing mode cannot serve: exclusive checkout pins a block to the
// processor across accesses, while PartitionRandom must relocate a block
// to a fresh uniform shard on every touch — the two ownership disciplines
// do not compose (yet; an eviction-pool design could reconcile them).
var errRandomExclusive = fmt.Errorf("pathoram: Load/Store (exclusive checkout) is not supported under PartitionRandom")

// Load is the exclusive read of Section 3.3.1 through the serving layer:
// one oblivious access on the owning shard removes the block — and, with
// super blocks, its resident group members — from that shard and hands
// them to the caller, with group addresses translated back to logical
// addresses. Note super blocks group *shard-local* adjacency: under
// PartitionStripe the returned group members are stride-N logical
// neighbors, under PartitionRange true neighbors. Not supported under
// PartitionRandom (see errRandomExclusive). Blocks stay checked out until
// Store returns them.
func (s *Sharded) Load(addr uint64) (data []byte, found bool, group []Block, err error) {
	if s.partition == PartitionRandom {
		return nil, false, nil, errRandomExclusive
	}
	if err := s.checkAddr(addr); err != nil {
		return nil, false, nil, err
	}
	sh, local := s.shardOf(addr)
	req := shard.Request{Op: shard.OpLoad, Addr: local}
	if err := s.pool.Do(sh, &req); err != nil {
		return nil, false, nil, err
	}
	for _, sl := range req.Group {
		group = append(group, Block{Addr: s.globalOf(sh, sl.Addr), Data: sl.Data})
	}
	return req.Out, req.Found, group, nil
}

// Store returns a previously loaded block. It inserts straight into the
// owning shard's stash — no path access (Section 3.3.1).
func (s *Sharded) Store(addr uint64, data []byte) error {
	if s.partition == PartitionRandom {
		return errRandomExclusive
	}
	if err := s.checkAddr(addr); err != nil {
		return err
	}
	sh, local := s.shardOf(addr)
	return s.pool.Do(sh, &shard.Request{Op: shard.OpStore, Addr: local, Data: data})
}

// PaddingAccess performs one scheduler-padding dummy operation shaped
// exactly like a real single operation, so an observer of the shard
// schedule and the memory bus cannot tell them apart: under the fixed
// partitions one dummy path access on a uniformly drawn shard (touching
// every level of a hierarchical shard); under PartitionRandom a two-leg
// pair on two independently drawn uniform shards, mirroring the
// fetch + relocate shape every real operation has there. Padded batches
// inject their padding themselves; the single-op form exists so callers
// can run their own cover-traffic schedules.
func (s *Sharded) PaddingAccess() error {
	if s.partition == PartitionRandom {
		legs := s.padDraws.drawMany(2)
		for _, sh := range legs {
			if err := s.pool.Do(sh, &shard.Request{Op: shard.OpPadding}); err != nil {
				return err
			}
		}
		return nil
	}
	return s.pool.Do(s.padDraws.draw(), &shard.Request{Op: shard.OpPadding})
}

// StepBackground performs one unit of deferred work on some shard:
// scanning from a rotating start, it asks each shard's engine in turn —
// serialized with that shard's request stream, without the snapshot
// consistency flush — for one pending write-back completion or (when
// allowEviction is set) one background-eviction dummy access, returning
// the first unit performed. BgNone means no shard has anything useful to
// do. Under AsyncEviction an untimed shard's idle pump completes owed
// write-backs between requests on its own; idle eviction runs only here,
// when a caller asks for it.
func (s *Sharded) StepBackground(allowEviction bool) (BackgroundWork, error) {
	n := len(s.engines)
	start := int(s.bgCursor.Add(1)-1) % n
	for k := 0; k < n; k++ {
		i := (start + k) % n
		var w BackgroundWork
		err := s.pool.Inspect(i, func() (err error) {
			w, err = s.engines[i].StepBackground(allowEviction)
			return err
		})
		if err != nil || w != BgNone {
			return w, err
		}
	}
	return BgNone, nil
}

// ReadBatch reads every address in one submission: requests fan out to
// their shards, run in parallel across shards, and join. results[i] is the
// block at addrs[i] — input order is preserved regardless of shard
// interleaving. Address validation happens up front: an out-of-range
// address fails the whole batch before anything is submitted. Once
// submitted, every request executes; the returned error is then the first
// per-request failure and results holds whatever succeeded (nil at failed
// slots). Exception: under PartitionRandom a failed fetch aborts the
// whole batch before any block is relocated — results is then nil even
// for requests whose fetch succeeded (the router map stays consistent;
// see DESIGN.md's error semantics).
func (s *Sharded) ReadBatch(addrs []uint64) ([][]byte, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	if s.partition == PartitionRandom {
		return s.randomBatch(addrs, nil, shard.OpRead)
	}
	build := func(_ int, local uint64) shard.Request {
		return shard.Request{Op: shard.OpRead, Addr: local}
	}
	var reqs []*shard.Request
	var err error
	if s.padded {
		reqs, err = s.paddedFixedBatch(addrs, build)
	} else {
		var shards []int
		reqs, shards, err = s.batchRequests(addrs, build)
		if err != nil {
			return nil, err
		}
		err = s.pool.DoBatch(shards, reqs)
	}
	if reqs == nil {
		return nil, err
	}
	results := make([][]byte, len(addrs))
	for i, r := range reqs {
		results[i] = r.Out
	}
	return results, err
}

// WriteBatch writes data[i] to addrs[i] for every i in one submission,
// fanning out across shards and joining. Ordering guarantee: requests to
// the same shard execute in slice order, so a batch writing one address
// twice ends with the later value (under PartitionRandom, duplicates
// coalesce with the same later-write-wins result). Address and length
// validation happens up front and fails the whole batch before anything
// is submitted; once submitted, every request executes and the returned
// error is the first per-request failure — except under PartitionRandom,
// where a failed fetch aborts the batch before any write lands.
func (s *Sharded) WriteBatch(addrs []uint64, data [][]byte) error {
	if len(addrs) != len(data) {
		return fmt.Errorf("pathoram: %d addresses for %d payloads", len(addrs), len(data))
	}
	if len(addrs) == 0 {
		return nil
	}
	if s.partition == PartitionRandom {
		_, err := s.randomBatch(addrs, data, shard.OpWrite)
		return err
	}
	build := func(i int, local uint64) shard.Request {
		return shard.Request{Op: shard.OpWrite, Addr: local, Data: data[i]}
	}
	if s.padded {
		_, err := s.paddedFixedBatch(addrs, build)
		return err
	}
	reqs, shards, err := s.batchRequests(addrs, build)
	if err != nil {
		return err
	}
	return s.pool.DoBatch(shards, reqs)
}

// batchRequests validates every address up front, then builds the routing
// arrays for one batch submission: build constructs request i from its
// index and shard-local address. The single routing path both batch ops
// share — padded/dummy-filled batch modes should extend this, not fork it.
func (s *Sharded) batchRequests(addrs []uint64, build func(i int, local uint64) shard.Request) ([]*shard.Request, []int, error) {
	reqs := make([]*shard.Request, len(addrs))
	shards := make([]int, len(addrs))
	backing := make([]shard.Request, len(addrs))
	for i, a := range addrs {
		if err := s.checkAddr(a); err != nil {
			return nil, nil, err
		}
		sh, local := s.shardOf(a)
		backing[i] = build(i, local)
		reqs[i] = &backing[i]
		shards[i] = sh
	}
	return reqs, shards, nil
}

// Stats aggregates the protocol counters across all shards (Stats.Merge
// semantics: counters sum, stash peaks take the worst shard). Each shard's
// snapshot is taken under its lock, serialized with that shard's
// requests. Under AsyncEviction snapshots flush first; a flush failure
// cannot be reported here (no error return) but is recorded and surfaced
// by Close — call Flush directly to observe it eagerly.
func (s *Sharded) Stats() Stats {
	var merged Stats
	for _, st := range s.ShardStats() {
		merged = merged.Merge(st)
	}
	return merged
}

// ShardStats returns each shard's own protocol counters. Each snapshot is
// taken under its shard's lock, serialized with that shard's requests
// (after Close they read the quiescent shards).
func (s *Sharded) ShardStats() []Stats {
	out := make([]Stats, len(s.engines))
	_ = s.snapshot(func(i int, e *ORAM) { out[i] = e.Stats() })
	return out
}

// ResetStats clears every shard's protocol counters (peaks included), e.g.
// to exclude a pre-fill phase from a measurement. BlocksInORAM is a live
// occupancy gauge, not a counter, and survives the reset. The scheduler's
// own counters are cumulative; diff SchedulerStats snapshots instead.
func (s *Sharded) ResetStats() {
	_ = s.snapshot(func(_ int, e *ORAM) { e.ResetStats() })
}

// each runs fn on every shard under its lock, in shard order, and returns
// the first error (the pool also records it for Close).
func (s *Sharded) each(fn func(i int, e *ORAM) error) error {
	fns := make([]func() error, len(s.engines))
	for i, e := range s.engines {
		fns[i] = func() error { return fn(i, e) }
	}
	return s.pool.InspectAll(fns)
}

// snapshot is each for an observer: under AsyncEviction every shard is
// flushed first, so fn sees what the synchronous protocol would show
// (after Close the shards are quiescent and their files closed, so
// nothing is flushed). A flush failure is returned, and fn still runs.
func (s *Sharded) snapshot(fn func(i int, e *ORAM)) error {
	return s.each(func(i int, e *ORAM) (err error) {
		if s.async && !s.pool.Closed() {
			err = e.Flush()
		}
		fn(i, e)
		return err
	})
}

// ErrClosed is returned for operations submitted after Close.
var ErrClosed = shard.ErrClosed

// SchedulerStats re-exports the scheduler counters (internal/shard.Stats)
// so callers outside this module can name the type.
type SchedulerStats = shard.Stats

// SchedulerStats returns the request scheduler's own counters (ops,
// batches, per-shard executed requests).
func (s *Sharded) SchedulerStats() SchedulerStats { return s.pool.Stats() }

// TimingStats returns the shared memory bus's modeled-timing counters: every
// port of every shard merged (counters sum, the completion frontier takes
// the max — membus.Stats.Merge semantics, exactly how protocol stats
// aggregate). The quiesce runs under each shard's lock through the same
// snapshot path as Stats, and under AsyncEviction each shard flushes first,
// so the returned cycle counts always include every write-back owed by the
// traffic observed so far. Every shard's timing lane is quiesced before the
// bus is read: reading it forces every queued stage through, and forcing it
// while a shard's lane still holds stages would retire those out of event
// order. The bool is false under BackendMem.
func (s *Sharded) TimingStats() (TimingStats, bool) {
	if s.bus == nil {
		return TimingStats{}, false
	}
	_ = s.snapshot(func(_ int, e *ORAM) { e.lane.quiesce() })
	return s.bus.Stats(), true
}

// Flush completes every shard's deferred state — staged write-backs and
// background eviction under AsyncEviction, dirty PLB labels under a
// recursive position map — leaving all shards in a state a flush-free
// construction could have produced. It serializes with each shard's
// request stream (concurrent traffic keeps flowing; requests accepted
// before the flush are included). Each engine's own Flush decides what is
// owed, so this is a plain barrier when nothing is deferred; the idle pump
// issues no eviction, so nothing moves after it until the next request
// (DESIGN.md, "Flush is a barrier").
func (s *Sharded) Flush() error {
	return s.each(func(_ int, e *ORAM) error { return e.Flush() })
}

// PendingWriteBacks returns the total number of deferred path write-backs
// across all shards that have not yet been completed. Unlike the other
// snapshots it intentionally does NOT flush first — it measures the
// backlog. Always 0 without AsyncEviction, and after Close or Flush.
func (s *Sharded) PendingWriteBacks() int {
	counts := make([]int, len(s.engines))
	_ = s.each(func(i int, e *ORAM) error { counts[i] = e.PendingWriteBacks(); return nil })
	var total int
	for _, n := range counts {
		total += n
	}
	return total
}

// StashSize returns the summed stash occupancy over all shards.
func (s *Sharded) StashSize() int {
	sizes := make([]int, len(s.engines))
	_ = s.snapshot(func(i int, e *ORAM) { sizes[i] = e.StashSize() })
	var total int
	for _, n := range sizes {
		total += n
	}
	return total
}

// ExternalMemoryBytes returns the summed external storage footprint of all
// shards.
func (s *Sharded) ExternalMemoryBytes() uint64 {
	sizes := make([]uint64, len(s.engines))
	_ = s.snapshot(func(i int, e *ORAM) { sizes[i] = e.ExternalMemoryBytes() })
	var total uint64
	for _, n := range sizes {
		total += n
	}
	return total
}

// Close stops accepting new requests, waits until every request already
// running has completed (in-flight work is drained, never dropped),
// stops the shards' idle pumps, and closes every shard's engine (under
// BackendFile that checkpoints and closes the per-shard tree files and
// WALs). Operations submitted after Close fail with ErrClosed. Close is
// idempotent; Stats and ShardStats keep working on the quiescent shards
// afterwards. The FIRST error — pool drain or any shard's backend — is
// the one reported, even when later shards close cleanly.
func (s *Sharded) Close() error {
	err := s.pool.Close()
	for _, e := range s.engines {
		if cerr := e.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
