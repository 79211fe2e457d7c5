package encrypt

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/storage"
	"repro/internal/treemath"
)

// slotHeaderBytes is the byte-aligned per-slot header: 8-byte address
// (stored as Addr+1; 0 marks a dummy block, the paper's reserved address,
// so a zero-filled arena or tree file holds an all-dummy tree) plus a
// 4-byte leaf label.
const slotHeaderBytes = 12

// StoreConfig parameterizes a Store.
type StoreConfig struct {
	LeafLevel  int
	Z          int
	BlockBytes int // must be > 0: serialized buckets need payloads
	// Scheme seals every bucket: CounterScheme or StrawmanScheme, or
	// PlainScheme for a plaintext tree that must still be serialized.
	Scheme Scheme
	// Auth, when non-nil, verifies every path read and re-authenticates
	// every write-back (Section 5). Build it with NewAuthTree so the
	// hashed bucket width matches.
	Auth *integrity.Tree
	// RandomizeMemory fills external memory with bytes from this reader at
	// construction, simulating uninitialized DRAM. Requires Auth: the
	// valid bits are what make garbage memory safe to consume.
	RandomizeMemory io.Reader
	// Backing, when non-nil, is the storage the padded sealed buckets
	// live in (a file, a WAL-wrapped file, ...). Its geometry must match
	// this store: NumBuckets for the leaf level and a stride of
	// PaddedBucketBytes. Nil means a private in-memory arena — the
	// zero-overhead default.
	Backing storage.Storage
}

// Store is a core.PathStore that serializes buckets byte-aligned, seals
// them under a Scheme and keeps them in a flat external memory, optionally
// authenticated. It is the one place the bucket format of Section 2.2 is
// written and read. A path read opens each bucket in one pass from its
// stored record; a write-back seals each in one pass straight into the
// record the backing lends.
type Store struct {
	cfg    StoreConfig
	tree   treemath.Tree
	z      int
	pbytes int // plaintext bucket bytes
	cbytes int // raw ciphertext bucket bytes
	stride int // padded ciphertext bucket bytes
	slot   int // plaintext slot bytes: header and payload

	backing storage.Storage
	// written records per bucket whether it was ever written; nil under
	// Auth, whose valid bits answer that instead.
	written []bool

	// outstanding lists the leaves of ReadPaths not yet matched by a
	// WritePath. The protocol only ever writes paths it has read, but with
	// deferred write-backs the write may arrive after reads (and writes)
	// of other paths — a multiset is the strongest pairing the store can
	// still enforce. It holds at most the deferred queue plus one path.
	outstanding []uint64

	// Per-path scratch, sized once at construction: the path's bucket
	// IDs, records (stored on a read, lent on a write-back), their
	// ciphertext prefixes, reachability, plaintext image (one bucket per
	// level) and the levels a read opens (nil skips one).
	ids   []uint64
	recs  [][]byte
	cts   [][]byte
	reach []bool
	plain [][]byte
	open  [][]byte
	core.SlotIO

	// warm keeps warmPath's sum, so the compiler cannot drop the loads.
	// It is a field of the store, not a package variable, so that shards
	// running on different cores do not share the line it lives on.
	warm byte
}

// PlainBucketBytes returns the serialized plaintext size of one bucket.
func PlainBucketBytes(z, blockBytes int) int { return z * (slotHeaderBytes + blockBytes) }

// CipherBucketBytes returns the raw ciphertext size of one bucket under the
// given scheme.
func CipherBucketBytes(s Scheme, z, blockBytes int) int {
	return PlainBucketBytes(z, blockBytes) + s.Overhead(z)
}

// PaddedBucketBytes returns the external-memory stride of one bucket: its
// ciphertext padded to the DRAM access granularity (Section 2.4), which is
// also the bytes one bucket moves on the modeled memory bus.
func PaddedBucketBytes(s Scheme, z, blockBytes int) int {
	raw := CipherBucketBytes(s, z, blockBytes)
	if r := raw % storage.RecordAlign; r != 0 {
		raw += storage.RecordAlign - r
	}
	return raw
}

// NewAuthTree builds an authentication tree sized for this store's
// ciphertext buckets.
func NewAuthTree(leafLevel, z, blockBytes int, s Scheme) *integrity.Tree {
	return integrity.New(treemath.New(leafLevel), CipherBucketBytes(s, z, blockBytes))
}

// NewStore allocates the external memory and wires the scheme.
func NewStore(cfg StoreConfig) (*Store, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("encrypt: scheme is required")
	}
	if cfg.Z < 1 {
		return nil, fmt.Errorf("encrypt: Z=%d must be >= 1", cfg.Z)
	}
	if cfg.BlockBytes < 1 {
		return nil, fmt.Errorf("encrypt: serialized stores need payloads (BlockBytes >= 1)")
	}
	if cfg.RandomizeMemory != nil && cfg.Auth == nil {
		return nil, fmt.Errorf("encrypt: RandomizeMemory requires the integrity layer")
	}
	tree := treemath.New(cfg.LeafLevel)
	s := &Store{
		cfg:    cfg,
		tree:   tree,
		z:      cfg.Z,
		pbytes: PlainBucketBytes(cfg.Z, cfg.BlockBytes),
	}
	if _, counter := cfg.Scheme.(*CounterScheme); counter && s.pbytes > MaxCounterBucketBytes {
		return nil, fmt.Errorf("encrypt: Z=%d buckets of %dB blocks are %dB of plaintext; the counter scheme pads at most %dB per bucket",
			cfg.Z, cfg.BlockBytes, s.pbytes, MaxCounterBucketBytes)
	}
	s.cbytes = CipherBucketBytes(cfg.Scheme, cfg.Z, cfg.BlockBytes)
	s.stride = PaddedBucketBytes(cfg.Scheme, cfg.Z, cfg.BlockBytes)
	if cfg.Backing != nil {
		if cfg.Backing.NumBuckets() != tree.NumBuckets() || cfg.Backing.Stride() != s.stride {
			return nil, fmt.Errorf("encrypt: backing geometry (%d buckets, stride %d) does not match store (%d buckets, stride %d)",
				cfg.Backing.NumBuckets(), cfg.Backing.Stride(), tree.NumBuckets(), s.stride)
		}
		s.backing = cfg.Backing
	} else {
		mem, err := storage.NewMem(tree.NumBuckets(), s.stride)
		if err != nil {
			return nil, err
		}
		s.backing = mem
	}
	if cs, counter := cfg.Scheme.(*CounterScheme); counter && cfg.Backing != nil {
		// A reopened tree file already holds buckets sealed under this
		// key: continue each counter from its stored header, or the next
		// seal would reuse an earlier seal's pad AES_K(ID‖counter‖chunk).
		if err := s.resumeCounters(cs); err != nil {
			return nil, err
		}
	}
	if cfg.Auth == nil {
		s.written = make([]bool, tree.NumBuckets())
	}
	levels := tree.Levels()
	s.slot = slotHeaderBytes + cfg.BlockBytes
	s.ids, s.recs, s.cts = make([]uint64, levels), make([][]byte, levels), make([][]byte, levels)
	s.reach, s.open = make([]bool, levels), make([][]byte, levels)
	s.plain = make([][]byte, levels)
	image := make([]byte, levels*s.pbytes)
	for d := range s.plain {
		s.plain[d] = image[d*s.pbytes : (d+1)*s.pbytes : (d+1)*s.pbytes]
	}
	s.SlotIO = core.NewSlotIO(s, levels, cfg.Z, cfg.BlockBytes)
	if cfg.RandomizeMemory != nil {
		recs := [][]byte{make([]byte, s.stride)}
		for flat := uint64(0); flat < tree.NumBuckets(); flat++ {
			if _, err := io.ReadFull(cfg.RandomizeMemory, recs[0]); err != nil {
				return nil, fmt.Errorf("encrypt: randomizing memory: %w", err)
			}
			if err := s.backing.WriteBuckets([]uint64{flat}, recs); err != nil {
				return nil, fmt.Errorf("encrypt: randomizing memory: %w", err)
			}
		}
	}
	return s, nil
}

// resumeCounters seeds every bucket's counter from the header of its
// stored record. A fresh (zero-filled) backing leaves every counter at 0.
func (s *Store) resumeCounters(cs *CounterScheme) error {
	const batch = 256
	n := min(s.tree.NumBuckets(), uint64(len(cs.counters)))
	flats := make([]uint64, 0, batch)
	recs := make([][]byte, batch)
	for lo := uint64(0); lo < n; lo += batch {
		flats = flats[:0]
		for flat := lo; flat < min(lo+batch, n); flat++ {
			flats = append(flats, flat)
		}
		if err := s.backing.ReadBuckets(flats, recs[:len(flats)]); err != nil {
			return fmt.Errorf("encrypt: reading stored counters: %w", err)
		}
		for i, flat := range flats {
			cs.counters[flat] = binary.LittleEndian.Uint64(recs[i][:8])
		}
	}
	return nil
}

// MemoryBytes returns the external-memory footprint of the tree.
func (s *Store) MemoryBytes() uint64 { return s.backing.MemoryBytes() }

// Backing returns the storage the sealed buckets live in.
func (s *Store) Backing() storage.Storage { return s.backing }

// bucketSlice returns the live ciphertext of one bucket, aliasing the
// backing (test hooks only).
func (s *Store) bucketSlice(flat uint64) []byte {
	rec := make([][]byte, 1)
	if err := s.backing.ReadBuckets([]uint64{flat}, rec); err != nil {
		panic(fmt.Sprintf("encrypt: bucketSlice(%d): %v", flat, err))
	}
	return rec[0][:s.cbytes]
}

// ReadPathInto implements core.PathStore: verify the path, open it into
// the plaintext image, and copy each real block's payload into the buffer
// dst hands out. Buckets flagged in skip are still read and verified but
// not opened: their live content is in the caller's write buffer. A path
// that fails verification leaves dst untouched.
func (s *Store) ReadPathInto(leaf uint64, skip []bool, dst core.BlockSink) error {
	if !s.tree.ValidLeaf(leaf) {
		return fmt.Errorf("encrypt: leaf %d out of range", leaf)
	}
	s.pathReachability(leaf)
	for d := range s.ids {
		s.ids[d] = s.tree.PathBucket(leaf, d)
	}
	if err := s.backing.ReadBuckets(s.ids, s.recs); err != nil {
		return err
	}
	for d := range s.recs {
		s.cts[d] = s.recs[d][:s.cbytes]
	}
	s.warmPath()
	if s.cfg.Auth != nil {
		if err := s.cfg.Auth.VerifyPath(leaf, s.cts); err != nil {
			return err
		}
	}
	for d := range s.open {
		// An unreachable bucket was never written: only garbage (or
		// zeroes) there.
		s.open[d] = nil
		if s.reach[d] && (skip == nil || !skip[d]) {
			s.open[d] = s.plain[d]
		}
	}
	if err := s.cfg.Scheme.OpenPath(s.ids, s.cts, s.z, s.open); err != nil {
		return err
	}
	for d, pt := range s.open {
		for i := 0; pt != nil && i < s.z; i++ {
			rec := pt[i*s.slot : (i+1)*s.slot]
			if addr1 := binary.LittleEndian.Uint64(rec); addr1 != 0 {
				copy(dst.Block(d, addr1-1, binary.LittleEndian.Uint32(rec[8:])), rec[slotHeaderBytes:])
			}
		}
	}
	s.outstanding = append(s.outstanding, leaf)
	return nil
}

// warmPath is ReadPathInto's load pass: it reads one byte of every
// RecordAlign-sized line of every level's record, skipped levels
// included (VerifyPath still hashes them), before any level is verified
// or decrypted. The loads do not depend on each other, so the path's cold
// misses are in flight together instead of each waiting behind the
// previous level's AES. The lines and their order are those of the path
// read itself, a function of the public leaf only.
func (s *Store) warmPath() {
	var sum byte
	for _, rec := range s.recs {
		for off := 0; off < len(rec); off += storage.RecordAlign {
			sum += rec[off]
		}
	}
	s.warm = sum
}

// pathReachability fills reach with, per level, whether the bucket on the
// path to leaf has meaningful (ever-written) content right now.
func (s *Store) pathReachability(leaf uint64) {
	if s.cfg.Auth != nil {
		s.cfg.Auth.FillReachability(leaf, s.reach)
		return
	}
	for d := range s.reach {
		s.reach[d] = s.written[s.tree.PathBucket(leaf, d)]
	}
}

// WritePathFrom implements core.PathStore: lay p into the plaintext image
// (unfilled slots are zero dummies), seal it under fresh randomness
// straight into the records the backing lends, and re-authenticate.
// Bucket sizes and every check SealPath makes (the counter's wrap guard)
// are settled before the first byte lands in a lent record. The store
// enforces the read/write pairing as a multiset (deferred write-backs may
// land after later paths), and takes the auth tree's reachability at
// write time, when it can only have improved since the read.
func (s *Store) WritePathFrom(leaf uint64, p *core.Path) error {
	read := slices.Index(s.outstanding, leaf)
	if read < 0 {
		return fmt.Errorf("encrypt: WritePath(%d) without matching ReadPath", leaf)
	}
	if len(p.Buckets) != s.tree.Levels() {
		return fmt.Errorf("encrypt: got %d buckets, want %d", len(p.Buckets), s.tree.Levels())
	}
	for d, b := range p.Buckets {
		if len(b) > s.z {
			return fmt.Errorf("encrypt: bucket at level %d overfull (%d > %d)", d, len(b), s.z)
		}
	}
	for d, b := range p.Buckets {
		s.ids[d] = s.tree.PathBucket(leaf, d)
		for i, e := range b {
			rec := s.plain[d][i*s.slot : (i+1)*s.slot]
			binary.LittleEndian.PutUint64(rec, e.Addr+1)
			binary.LittleEndian.PutUint32(rec[8:], e.Leaf)
			copy(rec[slotHeaderBytes:], p.Slab.At(e.Slot))
		}
		clear(s.plain[d][len(b)*s.slot:]) // dummies: zero header and payload
	}
	if err := s.backing.LendBuckets(s.ids, s.recs); err != nil {
		return err
	}
	for d, rec := range s.recs {
		s.cts[d] = rec[:s.cbytes]
	}
	if err := s.cfg.Scheme.SealPath(s.ids, s.plain, s.z, s.cts); err != nil {
		return err
	}
	for _, rec := range s.recs {
		clear(rec[s.cbytes:]) // the pad tail of a record stays zero
	}
	if err := s.backing.CommitLent(); err != nil {
		return err
	}
	s.outstanding = slices.Delete(s.outstanding, read, read+1)
	if s.cfg.Auth != nil {
		s.pathReachability(leaf)
		return s.cfg.Auth.UpdatePath(leaf, s.cts, s.reach)
	}
	for _, flat := range s.ids {
		s.written[flat] = true
	}
	return nil
}

// TamperBucket XORs mask into a bucket's ciphertext (test hook simulating
// external-memory tampering).
func (s *Store) TamperBucket(flat uint64, mask byte) {
	ct := s.bucketSlice(flat)
	for i := range ct {
		ct[i] ^= mask
	}
}

// SnapshotBucket returns a copy of a bucket's ciphertext, and
// RestoreBucket writes one back — together they simulate a replay attack.
func (s *Store) SnapshotBucket(flat uint64) []byte {
	return append([]byte(nil), s.bucketSlice(flat)...)
}

// RestoreBucket implements the replay half of Snapshot/Restore.
func (s *Store) RestoreBucket(flat uint64, snap []byte) {
	copy(s.bucketSlice(flat), snap)
}
