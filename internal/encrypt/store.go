package encrypt

import (
	"encoding/binary"
	"fmt"
	"io"

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
// written and read.
type Store struct {
	cfg    StoreConfig
	tree   treemath.Tree
	z      int
	pbytes int // plaintext bucket bytes
	cbytes int // raw ciphertext bucket bytes
	stride int // padded ciphertext bucket bytes

	backing storage.Storage
	// written records per bucket whether it was ever written; nil under
	// Auth, whose valid bits answer that instead.
	written []bool

	// outstanding counts, per leaf, ReadPaths not yet matched by a
	// WritePath. The protocol only ever writes paths it has read, but with
	// deferred write-backs the write may arrive after reads (and writes)
	// of other paths — a multiset is the strongest pairing the store can
	// still enforce.
	outstanding map[uint64]int

	// Reusable per-path scratch, sized once at construction. plainPath
	// holds one plaintext bucket per level: ReadPath decodes into it and
	// the Slots it returns alias it (valid until the next store
	// operation); WritePath serializes into it before sealing. openRefs
	// selects which levels OpenPath decrypts (nil = skip); idsBuf carries
	// the flat bucket IDs of the current path; reachBuf backs
	// pathReachability when there is no auth tree.
	// sealBufs holds one stride-sized store-owned record per level:
	// WritePath seals into it and then hands the whole path to the
	// backing in one WriteBuckets call — the seam the WAL logs at.
	plainPath [][]byte
	openRefs  [][]byte
	idsBuf    []uint64
	reachBuf  []bool
	ctRefs    [][]byte
	sealBufs  [][]byte

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
	s.outstanding = make(map[uint64]int)
	s.plainPath = make([][]byte, tree.Levels())
	plainArena := make([]byte, tree.Levels()*s.pbytes)
	for d := range s.plainPath {
		s.plainPath[d] = plainArena[d*s.pbytes : (d+1)*s.pbytes : (d+1)*s.pbytes]
	}
	s.openRefs = make([][]byte, tree.Levels())
	s.idsBuf = make([]uint64, tree.Levels())
	s.reachBuf = make([]bool, tree.Levels())
	s.ctRefs = make([][]byte, tree.Levels())
	s.sealBufs = make([][]byte, tree.Levels())
	sealArena := make([]byte, tree.Levels()*s.stride)
	for d := range s.sealBufs {
		s.sealBufs[d] = sealArena[d*s.stride : (d+1)*s.stride : (d+1)*s.stride]
	}
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

// ReadPath implements core.PathStore: decrypt (and verify) the path,
// emit the real blocks per level into dst. Buckets flagged in skip are
// still read and verified — their ciphertexts are part of the path's
// authentication — but not decrypted or emitted: the caller holds their
// live content in a pending deferred write-back, so the store copy is
// stale.
//
// The returned Slot.Data slices alias the store's per-level decode arena
// and stay valid only until the next ReadPath or WritePath on this store;
// callers that keep block contents longer must copy them out.
func (s *Store) ReadPath(leaf uint64, skip []bool, dst [][]core.Slot) ([][]core.Slot, error) {
	var err error
	if dst, err = core.PrepareReadBuf(dst, s.tree.Levels()); err != nil {
		return dst, err
	}
	if !s.tree.ValidLeaf(leaf) {
		return dst, fmt.Errorf("encrypt: leaf %d out of range", leaf)
	}
	reach := s.pathReachability(leaf)
	for d := 0; d <= s.tree.LeafLevel(); d++ {
		s.idsBuf[d] = s.tree.PathBucket(leaf, d)
	}
	if err := s.backing.ReadBuckets(s.idsBuf, s.ctRefs); err != nil {
		return dst, err
	}
	for d := range s.ctRefs {
		s.ctRefs[d] = s.ctRefs[d][:s.cbytes]
	}
	s.warmPath()
	if s.cfg.Auth != nil {
		if err := s.cfg.Auth.VerifyPath(leaf, s.ctRefs); err != nil {
			return dst, err
		}
	}
	for d := 0; d <= s.tree.LeafLevel(); d++ {
		switch {
		case !reach[d]:
			// Never written: only garbage (or zeroes) there.
			s.openRefs[d] = nil
		case skip != nil && skip[d]:
			// Live content is in the caller's write buffer.
			s.openRefs[d] = nil
		default:
			s.openRefs[d] = s.plainPath[d]
		}
	}
	if err := s.cfg.Scheme.OpenPath(s.idsBuf, s.ctRefs, s.z, s.openRefs); err != nil {
		return dst, err
	}
	slotBytes := slotHeaderBytes + s.cfg.BlockBytes
	for d := 0; d <= s.tree.LeafLevel(); d++ {
		if s.openRefs[d] == nil {
			continue
		}
		for i := 0; i < s.z; i++ {
			rec := s.plainPath[d][i*slotBytes : (i+1)*slotBytes]
			addr1 := binary.LittleEndian.Uint64(rec[:8])
			if addr1 == 0 {
				continue // dummy block
			}
			dst[d] = append(dst[d], core.Slot{
				Addr: addr1 - 1,
				Leaf: binary.LittleEndian.Uint32(rec[8:12]),
				Data: rec[slotHeaderBytes:slotBytes:slotBytes],
			})
		}
	}
	s.outstanding[leaf]++
	return dst, nil
}

// warmPath is ReadPath's load pass: it reads one byte of every
// RecordAlign-sized line of every level's ciphertext, skipped levels
// included (VerifyPath still hashes them), before any level is verified
// or decrypted. The loads do not depend on each other, so the path's cold
// misses are in flight together instead of each waiting behind the
// previous level's AES. The lines and their order are those of the path
// read itself, a function of the public leaf only.
func (s *Store) warmPath() {
	var sum byte
	for _, rec := range s.ctRefs {
		for off := 0; off < len(rec); off += storage.RecordAlign {
			sum += rec[off]
		}
	}
	s.warm = sum
}

// pathReachability reports, per level, whether the bucket on the path to
// leaf has meaningful (ever-written) content right now. The result aliases
// reachBuf (valid until the next path operation) unless the auth tree
// answers, which allocates per call — the integrity configuration is not
// part of the zero-allocation target.
func (s *Store) pathReachability(leaf uint64) []bool {
	if s.cfg.Auth != nil {
		return s.cfg.Auth.PathReachability(leaf)
	}
	for d := 0; d <= s.tree.LeafLevel(); d++ {
		s.reachBuf[d] = s.written[s.tree.PathBucket(leaf, d)]
	}
	return s.reachBuf
}

// WritePath implements core.PathStore: serialize, pad with dummies,
// re-encrypt under fresh randomness and re-authenticate. The protocol
// only writes paths it has read; the store enforces that pairing as a
// multiset, since deferred write-backs may land after later paths were
// read or written. Reachability is computed at write time — with
// intervening write-backs it can only have improved since the read.
func (s *Store) WritePath(leaf uint64, buckets [][]core.Slot) error {
	if s.outstanding[leaf] == 0 {
		return fmt.Errorf("encrypt: WritePath(%d) without matching ReadPath", leaf)
	}
	if len(buckets) != s.tree.Levels() {
		return fmt.Errorf("encrypt: got %d buckets, want %d", len(buckets), s.tree.Levels())
	}
	// Validate the whole path before touching any state: a bad bucket must
	// not consume the outstanding read or leave a half-serialized path in
	// plainPath.
	for d, bucket := range buckets {
		if len(bucket) > s.z {
			return fmt.Errorf("encrypt: bucket at level %d overfull (%d > %d)", d, len(bucket), s.z)
		}
		for _, b := range bucket {
			if len(b.Data) != s.cfg.BlockBytes {
				return fmt.Errorf("encrypt: block %d payload %dB, want %dB", b.Addr, len(b.Data), s.cfg.BlockBytes)
			}
		}
	}
	reach := s.pathReachability(leaf)
	if s.outstanding[leaf]--; s.outstanding[leaf] == 0 {
		delete(s.outstanding, leaf)
	}
	slotBytes := slotHeaderBytes + s.cfg.BlockBytes
	for d, bucket := range buckets {
		s.idsBuf[d] = s.tree.PathBucket(leaf, d)
		plain := s.plainPath[d]
		for i, b := range bucket {
			rec := plain[i*slotBytes : (i+1)*slotBytes]
			binary.LittleEndian.PutUint64(rec[:8], b.Addr+1)
			binary.LittleEndian.PutUint32(rec[8:12], b.Leaf)
			copy(rec[slotHeaderBytes:], b.Data)
		}
		// Dummy blocks: zero header; zero payload keeps plaintext
		// deterministic, the randomized encryption hides it.
		clear(plain[len(bucket)*slotBytes:])
		s.ctRefs[d] = s.sealBufs[d][:s.cbytes]
	}
	// Seal the whole path in one call into the store-owned record
	// buffers, then commit it to the backing as one batch — the unit the
	// WAL logs atomically. The pad tail of each sealBuf is never written
	// and stays zero.
	if err := s.cfg.Scheme.SealPath(s.idsBuf, s.plainPath, s.z, s.ctRefs); err != nil {
		return err
	}
	if err := s.backing.WriteBuckets(s.idsBuf, s.sealBufs); err != nil {
		return err
	}
	if s.cfg.Auth != nil {
		return s.cfg.Auth.UpdatePath(leaf, s.ctRefs, reach)
	}
	for _, flat := range s.idsBuf {
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
