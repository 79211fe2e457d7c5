package encrypt

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/storage"
	"repro/internal/treemath"
)

// buildORAM wires a core ORAM over an encrypting store.
func buildORAM(t *testing.T, scheme Scheme, auth *integrity.Tree, randomize bool, seed int64) (*core.ORAM, *Store) {
	t.Helper()
	p := core.Params{
		LeafLevel: 4, Z: 4, BlockBytes: 16, Blocks: 64,
		StashCapacity:      80,
		BackgroundEviction: true,
	}
	cfg := StoreConfig{LeafLevel: p.LeafLevel, Z: p.Z, BlockBytes: p.BlockBytes, Scheme: scheme, Auth: auth}
	if randomize {
		cfg.RandomizeMemory = rand.New(rand.NewSource(seed + 1000))
	}
	store, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := core.NewMathLeafSource(rand.New(rand.NewSource(seed)))
	pos, err := core.NewOnChipPositionMap(p.Groups(), 1<<uint(p.LeafLevel), src)
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.New(p, store, pos, src)
	if err != nil {
		t.Fatal(err)
	}
	return o, store
}

func fill(b byte, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestEncryptedORAMEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme func(t *testing.T) Scheme
	}{
		{"counter", func(t *testing.T) Scheme {
			s, err := NewCounterScheme(testKey, 31)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"strawman", func(t *testing.T) Scheme {
			s, err := NewStrawmanScheme(testKey, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			o, _ := buildORAM(t, tc.scheme(t), nil, false, 7)
			rng := rand.New(rand.NewSource(3))
			shadow := map[uint64][]byte{}
			for i := 0; i < 600; i++ {
				addr := rng.Uint64() % 64
				if rng.Intn(2) == 0 {
					d := fill(byte(rng.Intn(256)), 16)
					if _, err := o.Access(addr, core.OpWrite, d); err != nil {
						t.Fatal(err)
					}
					shadow[addr] = d
				} else {
					got, err := o.Access(addr, core.OpRead, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, ok := shadow[addr]
					if !ok {
						want = make([]byte, 16)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d addr %d: got % x want % x", i, addr, got, want)
					}
				}
			}
		})
	}
}

func TestEncryptedMatchesMemStore(t *testing.T) {
	// The encrypting store and the plain store must implement identical
	// semantics: same seeds, same operations, same results.
	scheme, _ := NewCounterScheme(testKey, 31)
	enc, _ := buildORAM(t, scheme, nil, false, 11)

	p := enc.Params()
	mem, err := core.NewMemStore(p.LeafLevel, p.Z, p.BlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	src := core.NewMathLeafSource(rand.New(rand.NewSource(11)))
	pos, _ := core.NewOnChipPositionMap(p.Groups(), 1<<uint(p.LeafLevel), src)
	ref, err := core.New(p, mem, pos, src)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		addr := rng.Uint64() % p.Blocks
		if rng.Intn(2) == 0 {
			d := fill(byte(i), 16)
			if _, err := enc.Access(addr, core.OpWrite, d); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Access(addr, core.OpWrite, d); err != nil {
				t.Fatal(err)
			}
		} else {
			a, err := enc.Access(addr, core.OpRead, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ref.Access(addr, core.OpRead, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("step %d: encrypted %x != reference %x", i, a, b)
			}
		}
	}
}

func TestCiphertextChangesEveryWriteback(t *testing.T) {
	// Even a pure read must leave every touched bucket re-randomized, or
	// an observer could tell reads from writes (Section 2).
	scheme, _ := NewCounterScheme(testKey, 31)
	o, store := buildORAM(t, scheme, nil, false, 17)
	if _, err := o.Access(5, core.OpWrite, fill(1, 16)); err != nil {
		t.Fatal(err)
	}
	before := store.SnapshotBucket(0) // root is on every path
	if _, err := o.Access(5, core.OpRead, nil); err != nil {
		t.Fatal(err)
	}
	after := store.SnapshotBucket(0)
	if bytes.Equal(before, after) {
		t.Error("root bucket ciphertext unchanged across an access")
	}
}

func TestAuthenticatedORAMWithUninitializedMemory(t *testing.T) {
	// The Section 5 design goal: no initialization pass. External memory
	// starts as random garbage; the valid bits keep it inert and the ORAM
	// must work and verify from the first access.
	scheme, err := NewCounterScheme(testKey, 31)
	if err != nil {
		t.Fatal(err)
	}
	auth := NewAuthTree(4, 4, 16, scheme)
	o, _ := buildORAM(t, scheme, auth, true, 23)
	shadow := map[uint64][]byte{}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 500; i++ {
		addr := rng.Uint64() % 64
		if rng.Intn(2) == 0 {
			d := fill(byte(rng.Intn(256)), 16)
			if _, err := o.Access(addr, core.OpWrite, d); err != nil {
				t.Fatal(err)
			}
			shadow[addr] = d
		} else {
			got, err := o.Access(addr, core.OpRead, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := shadow[addr]
			if !ok {
				want = make([]byte, 16)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d addr %d mismatch", i, addr)
			}
		}
	}
	reads, writes, verifs := auth.Stats()
	if verifs == 0 || reads == 0 || writes == 0 {
		t.Error("authentication tree seems unused")
	}
}

func TestTamperDetection(t *testing.T) {
	scheme, _ := NewCounterScheme(testKey, 31)
	auth := NewAuthTree(4, 4, 16, scheme)
	o, store := buildORAM(t, scheme, auth, false, 31)
	for a := uint64(0); a < 32; a++ {
		if _, err := o.Access(a, core.OpWrite, fill(byte(a), 16)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the root bucket: every subsequent access reads it.
	store.TamperBucket(0, 0x01)
	_, err := o.Access(0, core.OpRead, nil)
	if !errors.Is(err, integrity.ErrVerify) {
		t.Errorf("tampered bucket not detected: %v", err)
	}
}

func TestReplayDetection(t *testing.T) {
	scheme, _ := NewCounterScheme(testKey, 31)
	auth := NewAuthTree(4, 4, 16, scheme)
	o, store := buildORAM(t, scheme, auth, false, 37)
	if _, err := o.Access(1, core.OpWrite, fill(1, 16)); err != nil {
		t.Fatal(err)
	}
	snap := store.SnapshotBucket(0)
	// Progress the ORAM so the snapshot goes stale.
	for a := uint64(0); a < 16; a++ {
		if _, err := o.Access(a, core.OpWrite, fill(2, 16)); err != nil {
			t.Fatal(err)
		}
	}
	// Replay the old (validly encrypted, validly hashed at the time)
	// bucket: freshness must catch it via the on-chip root.
	store.RestoreBucket(0, snap)
	_, err := o.Access(1, core.OpRead, nil)
	if !errors.Is(err, integrity.ErrVerify) {
		t.Errorf("replayed bucket not detected: %v", err)
	}
}

func TestStoreValidation(t *testing.T) {
	scheme, _ := NewCounterScheme(testKey, 31)
	if _, err := NewStore(StoreConfig{LeafLevel: 3, Z: 0, BlockBytes: 8, Scheme: scheme}); err == nil {
		t.Error("Z=0 accepted")
	}
	if _, err := NewStore(StoreConfig{LeafLevel: 3, Z: 1, BlockBytes: 0, Scheme: scheme}); err == nil {
		t.Error("metadata-only encrypted store accepted")
	}
	if _, err := NewStore(StoreConfig{LeafLevel: 3, Z: 1, BlockBytes: 8}); err == nil {
		t.Error("nil scheme accepted")
	}
	if _, err := NewStore(StoreConfig{
		LeafLevel: 3, Z: 1, BlockBytes: 8, Scheme: scheme,
		RandomizeMemory: rand.New(rand.NewSource(1)),
	}); err == nil {
		t.Error("randomized memory without integrity accepted")
	}
}

func TestWritePathRequiresMatchingRead(t *testing.T) {
	scheme, _ := NewCounterScheme(testKey, 31)
	store, err := NewStore(StoreConfig{LeafLevel: 4, Z: 2, BlockBytes: 8, Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WritePath(3, make([][]core.Slot, 5)); err == nil {
		t.Error("WritePath without ReadPath accepted")
	}
	if _, err := store.ReadPath(2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := store.WritePath(3, make([][]core.Slot, 5)); err == nil {
		t.Error("WritePath for a different leaf accepted")
	}
	// The read of 2 is still outstanding, so its (late) write-back lands;
	// a second one must be rejected — writes never outnumber reads.
	if err := store.WritePath(2, make([][]core.Slot, 5)); err != nil {
		t.Errorf("deferred WritePath for outstanding read rejected: %v", err)
	}
	if err := store.WritePath(2, make([][]core.Slot, 5)); err == nil {
		t.Error("double WritePath for a single ReadPath accepted")
	}
}

// TestDeferredWriteBackInterleavingWithAuth drives the store in the
// staged protocol's access order — several path reads outstanding at
// once, write-backs landing late in FIFO order — and checks that
// authenticated round trips keep verifying and block payloads survive.
func TestDeferredWriteBackInterleavingWithAuth(t *testing.T) {
	scheme, _ := NewCounterScheme(testKey, 31)
	auth := NewAuthTree(4, 2, 8, scheme)
	store, err := NewStore(StoreConfig{LeafLevel: 4, Z: 2, BlockBytes: 8, Scheme: scheme, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	write := func(leaf uint64, buckets [][]core.Slot) {
		t.Helper()
		if buckets == nil {
			buckets = make([][]core.Slot, 5)
		}
		if err := store.WritePath(leaf, buckets); err != nil {
			t.Fatal(err)
		}
	}
	read := func(leaf uint64) [][]core.Slot {
		t.Helper()
		got, err := store.ReadPath(leaf, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Seed a block on leaf 3's deepest bucket.
	read(3)
	seeded := make([][]core.Slot, 5)
	seeded[4] = []core.Slot{{Addr: 7, Leaf: 3, Data: fill(0xAB, 8)}}
	write(3, seeded)

	// Staged order: read 3, read 12, read 5 — then write them back FIFO.
	// The block travels as the stash would carry it: the early write-backs
	// rewrite their paths without it, and the final write-back places it
	// in the shared root bucket.
	got := read(3)
	if len(got[4]) != 1 || !bytes.Equal(got[4][0].Data, fill(0xAB, 8)) {
		t.Fatalf("seeded block lost before deferral: %v", got)
	}
	// ReadPath results alias the store's decode arena and go stale at the
	// next path operation; copy the block out the way the stash would.
	carried := got[4][0]
	carried.Data = append([]byte(nil), carried.Data...)
	read(12)
	read(5)
	write(3, nil)
	write(12, nil)
	relocated := make([][]core.Slot, 5)
	relocated[0] = []core.Slot{carried} // move the block to the shared root bucket
	write(5, relocated)

	// The root bucket is on every path; the block must be visible — and
	// the whole path must verify — wherever we look.
	if got := read(9); len(got[0]) != 1 || got[0][0].Addr != 7 {
		t.Fatalf("relocated block not visible at root via leaf 9: %v", got)
	}
	write(9, nil) // moves it out again (bucket rewritten empty)
	if got := read(3); len(flatten(got)) != 0 {
		t.Fatalf("tree should be empty after root rewrite, saw %v", got)
	}
	write(3, nil)
}

// countingTimer is a minimal core.PathTimer for the wrapper tests.
type countingTimer struct {
	reads, inlineWrites, deferredWrites int
}

func (c *countingTimer) ReadPath(uint64, []bool) { c.reads++ }
func (c *countingTimer) WritePath(_ uint64, deferred bool) {
	if deferred {
		c.deferredWrites++
	} else {
		c.inlineWrites++
	}
}

// TestTimedWrapperPreservesOutstandingPairing drives an encrypting,
// authenticated store through core.TimedStore in the staged access order
// (reads racing ahead of FIFO write-backs) and checks that the timed
// layer leaves the outstanding-path multiset untouched: late write-backs
// still land, writes still never outnumber reads, every path still
// verifies, and the timer sees exactly the store's I/O stream.
func TestTimedWrapperPreservesOutstandingPairing(t *testing.T) {
	scheme, _ := NewCounterScheme(testKey, 31)
	auth := NewAuthTree(4, 2, 8, scheme)
	inner, err := NewStore(StoreConfig{LeafLevel: 4, Z: 2, BlockBytes: 8, Scheme: scheme, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	timer := &countingTimer{}
	store, err := core.NewTimedStore(inner, timer)
	if err != nil {
		t.Fatal(err)
	}

	// Three reads outstanding at once, write-backs landing late in FIFO
	// order — the deferred queue's traffic shape. The last one goes
	// through the deferred entry point, as the ORAM's FIFO drain would.
	for _, leaf := range []uint64{3, 12, 5} {
		if _, err := store.ReadPath(leaf, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.WritePath(3, make([][]core.Slot, 5)); err != nil {
		t.Fatalf("late write-back of outstanding read rejected through timed layer: %v", err)
	}
	if err := store.WritePath(12, make([][]core.Slot, 5)); err != nil {
		t.Fatal(err)
	}
	if err := store.WritePathDeferred(5, make([][]core.Slot, 5)); err != nil {
		t.Fatal(err)
	}
	// The multiset is drained: an unmatched write must still be rejected,
	// and the rejection must not be charged.
	if err := store.WritePath(3, make([][]core.Slot, 5)); err == nil {
		t.Error("unmatched WritePath accepted through timed layer")
	}
	if timer.reads != 3 || timer.inlineWrites != 2 || timer.deferredWrites != 1 {
		t.Errorf("timer saw reads=%d inline=%d deferred=%d, want 3/2/1",
			timer.reads, timer.inlineWrites, timer.deferredWrites)
	}
	// Authenticated reads keep verifying through the wrapper.
	if _, err := store.ReadPath(9, nil, nil); err != nil {
		t.Fatalf("authenticated read through timed layer failed: %v", err)
	}
	if err := store.WritePath(9, make([][]core.Slot, 5)); err != nil {
		t.Fatal(err)
	}
}

func flatten(buckets [][]core.Slot) []core.Slot {
	var out []core.Slot
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

// countingBacking is a Storage that counts the buckets a store moves
// through it: the store's whole external-memory traffic.
type countingBacking struct {
	storage.Storage
	reads, writes int
}

func (c *countingBacking) ReadBuckets(flats []uint64, dst [][]byte) error {
	c.reads += len(flats)
	return c.Storage.ReadBuckets(flats, dst)
}

func (c *countingBacking) WriteBuckets(flats []uint64, recs [][]byte) error {
	c.writes += len(flats)
	return c.Storage.WriteBuckets(flats, recs)
}

// newCountingStore builds a Store over a counting in-memory backing.
func newCountingStore(t *testing.T, leafLevel, z, blockBytes int, scheme Scheme) (*Store, *countingBacking) {
	t.Helper()
	mem, err := storage.NewMem(treemath.New(leafLevel).NumBuckets(), PaddedBucketBytes(scheme, z, blockBytes))
	if err != nil {
		t.Fatal(err)
	}
	backing := &countingBacking{Storage: mem}
	store, err := NewStore(StoreConfig{LeafLevel: leafLevel, Z: z, BlockBytes: blockBytes, Scheme: scheme, Backing: backing})
	if err != nil {
		t.Fatal(err)
	}
	return store, backing
}

// TestStoreTrafficAndFootprint: construction reads each bucket's stored
// counter header once and writes nothing; after it, a path read and its
// write-back each move exactly the L+1 buckets of the path through the
// backing, and the footprint is the backing's.
func TestStoreTrafficAndFootprint(t *testing.T) {
	scheme, _ := NewCounterScheme(testKey, 31)
	store, backing := newCountingStore(t, 4, 2, 8, scheme)
	if backing.reads != 31 || backing.writes != 0 {
		t.Errorf("construction traffic=(%d,%d) want (31,0) buckets", backing.reads, backing.writes)
	}
	backing.reads = 0
	stride := PaddedBucketBytes(scheme, 2, 8)
	if got, want := store.MemoryBytes(), uint64(31*stride); got != want {
		t.Errorf("MemoryBytes=%d want %d", got, want)
	}
	if _, err := store.ReadPath(0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := store.WritePath(0, make([][]core.Slot, 5)); err != nil {
		t.Fatal(err)
	}
	if backing.reads != 5 || backing.writes != 5 {
		t.Errorf("traffic=(%d,%d) want (5,5) buckets", backing.reads, backing.writes)
	}
}

// TestWritePathAllDummiesOverFullPath writes a path with every slot
// occupied, then the same path with every bucket empty: the dummy fill
// must wipe each slot's header, so the read back yields no blocks.
func TestWritePathAllDummiesOverFullPath(t *testing.T) {
	const leafLevel, z, blockBytes = 3, 3, 21
	scheme, _ := NewCounterScheme(testKey, 15)
	store, err := NewStore(StoreConfig{LeafLevel: leafLevel, Z: z, BlockBytes: blockBytes, Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	full := make([][]core.Slot, leafLevel+1)
	for d := range full {
		for i := 0; i < z; i++ {
			full[d] = append(full[d], core.Slot{Addr: uint64(d*z + i), Leaf: 5, Data: fill(0xff, blockBytes)})
		}
	}
	for _, tc := range []struct {
		write [][]core.Slot
		want  int
	}{{full, (leafLevel + 1) * z}, {make([][]core.Slot, leafLevel+1), 0}} {
		if _, err := store.ReadPath(5, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := store.WritePath(5, tc.write); err != nil {
			t.Fatal(err)
		}
		got, err := store.ReadPath(5, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(flatten(got)); n != tc.want {
			t.Errorf("read back %d blocks, want %d", n, tc.want)
		}
		if err := store.WritePath(5, tc.write); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWritePathRejectsBadPayloadUntouched: a wrong-size payload deep in
// the path is refused before anything is serialized or the outstanding
// read consumed, so the corrected write-back still lands.
func TestWritePathRejectsBadPayloadUntouched(t *testing.T) {
	scheme, _ := NewCounterScheme(testKey, 31)
	store, backing := newCountingStore(t, 4, 2, 8, scheme)
	if _, err := store.ReadPath(9, nil, nil); err != nil {
		t.Fatal(err)
	}
	buckets := make([][]core.Slot, 5)
	buckets[0] = []core.Slot{{Addr: 1, Leaf: 9, Data: fill(1, 8)}}
	buckets[4] = []core.Slot{{Addr: 2, Leaf: 9, Data: fill(2, 7)}}
	if err := store.WritePath(9, buckets); err == nil {
		t.Fatal("7-byte payload accepted by an 8-byte store")
	}
	if backing.writes != 0 || scheme.Counter(0) != 0 {
		t.Errorf("refused write-back reached the tree: %d bucket writes, root counter %d", backing.writes, scheme.Counter(0))
	}
	buckets[4][0].Data = fill(2, 8)
	if err := store.WritePath(9, buckets); err != nil {
		t.Fatalf("corrected write-back refused: %v", err)
	}
	got, err := store.ReadPath(9, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(flatten(got)); n != 2 {
		t.Errorf("read back %d blocks, want 2", n)
	}
}

// TestStoragePlainStoreMatchesMemStore replays a random path workload
// through the serializing store under the identity scheme — over a Mem
// and over a File backing — and through core.MemStore, and requires
// identical ReadPath results throughout: a plaintext-at-rest tree is a
// drop-in for the unserialized one.
func TestStoragePlainStoreMatchesMemStore(t *testing.T) {
	const (
		leafLevel  = 4
		z          = 4
		blockBytes = 24
	)
	tree := treemath.New(leafLevel)
	ref, err := core.NewMemStore(leafLevel, z, blockBytes)
	if err != nil {
		t.Fatal(err)
	}
	stride := PaddedBucketBytes(PlainScheme{}, z, blockBytes)
	memBack, err := storage.NewMem(tree.NumBuckets(), stride)
	if err != nil {
		t.Fatal(err)
	}
	fileBack, err := storage.OpenFile(filepath.Join(t.TempDir(), "p.oram"), tree.NumBuckets(), stride)
	if err != nil {
		t.Fatal(err)
	}
	defer fileBack.Close()
	stores := map[string]*Store{}
	for name, backing := range map[string]storage.Storage{"mem": memBack, "file": fileBack} {
		s, err := NewStore(StoreConfig{LeafLevel: leafLevel, Z: z, BlockBytes: blockBytes, Scheme: PlainScheme{}, Backing: backing})
		if err != nil {
			t.Fatal(err)
		}
		stores[name] = s
	}

	r := rand.New(rand.NewSource(42))
	leaves := tree.NumLeaves()
	var nextAddr uint64 = 1
	for step := 0; step < 300; step++ {
		leaf := uint64(r.Intn(int(leaves)))
		got, err := ref.ReadPath(leaf, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range stores {
			g, err := s.ReadPath(leaf, nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(g) != len(got) {
				t.Fatalf("%s: level count mismatch", name)
			}
			for d := range got {
				if len(g[d]) != len(got[d]) {
					t.Fatalf("%s: step %d level %d: %d slots, want %d", name, step, d, len(g[d]), len(got[d]))
				}
				for i := range got[d] {
					if g[d][i].Addr != got[d][i].Addr || g[d][i].Leaf != got[d][i].Leaf || !bytes.Equal(g[d][i].Data, got[d][i].Data) {
						t.Fatalf("%s: step %d level %d slot %d mismatch", name, step, d, i)
					}
				}
			}
		}
		// Write a fresh random path back everywhere.
		buckets := make([][]core.Slot, tree.Levels())
		for d := range buckets {
			n := r.Intn(z + 1)
			for i := 0; i < n; i++ {
				data := make([]byte, blockBytes)
				for j := range data {
					data[j] = byte(r.Intn(256))
				}
				buckets[d] = append(buckets[d], core.Slot{Addr: nextAddr, Leaf: uint32(leaf), Data: data})
				nextAddr++
			}
		}
		if err := ref.WritePath(leaf, buckets); err != nil {
			t.Fatal(err)
		}
		for name, s := range stores {
			if err := s.WritePath(leaf, buckets); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestStorePathZeroAllocs: a ReadPath+WritePath pair on random leaves of
// a 2^15-bucket counter store (one flat-enc shard: 15 levels, Z=3,
// 64-byte blocks), load passes included, allocates nothing.
func TestStorePathZeroAllocs(t *testing.T) {
	const leafLevel, z, blockBytes = 14, 3, 64
	tree := treemath.New(leafLevel)
	scheme, err := NewCounterScheme(testKey, tree.NumBuckets())
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(StoreConfig{LeafLevel: leafLevel, Z: z, BlockBytes: blockBytes, Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	path := make([][]core.Slot, tree.Levels())
	for d := range path {
		path[d] = []core.Slot{{Addr: uint64(d), Data: fill(byte(d), blockBytes)}}
	}
	rng := rand.New(rand.NewSource(1))
	var dst [][]core.Slot
	allocs := testing.AllocsPerRun(500, func() {
		leaf := rng.Uint64() % tree.NumLeaves()
		if dst, err = store.ReadPath(leaf, nil, dst); err != nil {
			t.Fatal(err)
		}
		if err = store.WritePath(leaf, path); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadPath+WritePath: %g allocs/op, want 0", allocs)
	}
}
