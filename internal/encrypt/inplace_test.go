package encrypt

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/storage"
	"repro/internal/treemath"
)

// prefillBacking fills every record it lends with one byte before the
// store writes into it: two stores that differ only in that byte end up
// with identical records exactly when every byte is written.
type prefillBacking struct {
	storage.Storage
	b byte
}

func (p *prefillBacking) LendBuckets(flats []uint64, dst [][]byte) error {
	if err := p.Storage.LendBuckets(flats, dst); err != nil {
		return err
	}
	for _, rec := range dst {
		for i := range rec {
			rec[i] = p.b
		}
	}
	return nil
}

// occupiedPath returns a path write-back with n blocks in every bucket.
func occupiedPath(levels, z, n, blockBytes int) *core.Path {
	p := &core.Path{Buckets: make([][]core.Entry, levels), Slab: core.NewSlab(levels*z, blockBytes)}
	for d := range p.Buckets {
		for i := 0; i < n; i++ {
			slot := int32(d*z + i)
			copy(p.Slab.At(slot), fill(byte(slot+1), blockBytes))
			p.Buckets[d] = append(p.Buckets[d], core.Entry{Addr: uint64(slot), Leaf: 9, Slot: slot})
		}
	}
	return p
}

// countSink counts the blocks a path read emits.
type countSink struct {
	n   int
	buf []byte
}

func (c *countSink) Block(int, uint64, uint32) []byte { c.n++; return c.buf }

// TestPadWorkAndRecordWritesIndependentOfOccupancy: over an empty, a
// half-full and a full path of a counter tree, a path read and its
// write-back generate the same number of keystream blocks — every
// reachable bucket opened whole, every bucket sealed whole — and the
// write-back rewrites every byte of every level's record (the zero pad
// tail past the ciphertext included).
func TestPadWorkAndRecordWritesIndependentOfOccupancy(t *testing.T) {
	const leafLevel, z, blockBytes, leaf = 4, 3, 21, 9
	tree := treemath.New(leafLevel)
	levels := tree.Levels()
	perPath := uint64(2 * levels * ((PlainBucketBytes(z, blockBytes) + 15) / 16))
	for _, n := range []int{0, 1, z} {
		var recs [2][]byte
		for k, pattern := range []byte{0x00, 0xff} {
			scheme, _ := NewCounterScheme(testKey, tree.NumBuckets())
			mem, _ := storage.NewMem(tree.NumBuckets(), PaddedBucketBytes(scheme, z, blockBytes))
			store, err := NewStore(StoreConfig{LeafLevel: leafLevel, Z: z, BlockBytes: blockBytes, Scheme: scheme,
				Backing: &prefillBacking{Storage: mem, b: pattern}})
			if err != nil {
				t.Fatal(err)
			}
			sink := &countSink{buf: make([]byte, blockBytes)}
			path := occupiedPath(levels, z, n, blockBytes)
			// The first round makes every level reachable; the second is
			// the one measured.
			for round := 0; round < 2; round++ {
				before := scheme.ks.blocks
				sink.n = 0
				if err := store.ReadPathInto(leaf, nil, sink); err != nil {
					t.Fatal(err)
				}
				if err := store.WritePathFrom(leaf, path); err != nil {
					t.Fatal(err)
				}
				if got := scheme.ks.blocks - before; round == 1 && got != perPath {
					t.Errorf("%d blocks a bucket: read+write-back made %d pad blocks, want %d", n, got, perPath)
				}
				if round == 1 && sink.n != n*levels {
					t.Errorf("%d blocks a bucket: read emitted %d blocks, want %d", n, sink.n, n*levels)
				}
			}
			for d := 0; d < levels; d++ {
				recs[k] = append(recs[k], store.bucketRecord(tree.PathBucket(leaf, d))...)
			}
		}
		if !bytes.Equal(recs[0], recs[1]) {
			t.Errorf("%d blocks a bucket: a record byte kept its lent-in value", n)
		}
	}
}

// bucketRecord returns a copy of one bucket's whole stored record.
func (s *Store) bucketRecord(flat uint64) []byte {
	rec := make([][]byte, 1)
	if err := s.backing.ReadBuckets([]uint64{flat}, rec); err != nil {
		panic(err)
	}
	return append([]byte(nil), rec[0]...)
}

// failClosedBackings builds the storages a tree can live in: memory, a
// tree file, and a tree file behind a write-ahead log.
func failClosedBackings(t *testing.T, numBuckets uint64, stride int) map[string]storage.Storage {
	t.Helper()
	dir := t.TempDir()
	mem, err := storage.NewMem(numBuckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	file, err := storage.OpenFile(filepath.Join(dir, "file.tree"), numBuckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := storage.OpenFile(filepath.Join(dir, "wal.tree"), numBuckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := storage.OpenWAL(inner, filepath.Join(dir, "wal.log"), storage.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close(); wal.Close() })
	return map[string]storage.Storage{"mem": mem, "file": file, "wal": wal}
}

// TestRefusedWriteBackLeavesPathUntouched: a write-back refused by the
// deepest level's counter wrap guard, or by an overfull deepest bucket,
// is refused before the first byte lands in a lent record — the stored
// path stays byte-identical and the outstanding read stays open, so the
// corrected write-back still lands.
func TestRefusedWriteBackLeavesPathUntouched(t *testing.T) {
	const leafLevel, z, blockBytes, leaf = 4, 3, 21, 9
	tree := treemath.New(leafLevel)
	levels := tree.Levels()
	deepest := tree.PathBucket(leaf, leafLevel)
	for name, backing := range failClosedBackings(t, tree.NumBuckets(), PaddedBucketBytes(&CounterScheme{}, z, blockBytes)) {
		t.Run(name, func(t *testing.T) {
			scheme, _ := NewCounterScheme(testKey, tree.NumBuckets())
			store, err := NewStore(StoreConfig{LeafLevel: leafLevel, Z: z, BlockBytes: blockBytes, Scheme: scheme, Backing: backing})
			if err != nil {
				t.Fatal(err)
			}
			sink := &countSink{buf: make([]byte, blockBytes)}
			if err := store.ReadPathInto(leaf, nil, sink); err != nil {
				t.Fatal(err)
			}
			if err := store.WritePathFrom(leaf, occupiedPath(levels, z, 2, blockBytes)); err != nil {
				t.Fatal(err)
			}
			if err := store.ReadPathInto(leaf, nil, sink); err != nil {
				t.Fatal(err)
			}
			snapshot := func() []byte {
				var out []byte
				for d := 0; d < levels; d++ {
					out = append(out, store.bucketRecord(tree.PathBucket(leaf, d))...)
				}
				return out
			}
			before := snapshot()
			overfull := occupiedPath(levels, z, z, blockBytes)
			overfull.Buckets[leafLevel] = append(overfull.Buckets[leafLevel], core.Entry{Addr: 99, Slot: 0})
			saved := scheme.counters[deepest]
			scheme.counters[deepest] = math.MaxUint64
			for _, refused := range []struct {
				why  string
				path *core.Path
			}{{"counter wrap", occupiedPath(levels, z, z, blockBytes)}, {"overfull bucket", overfull}} {
				if err := store.WritePathFrom(leaf, refused.path); err == nil {
					t.Fatalf("%s: write-back accepted", refused.why)
				}
				if !bytes.Equal(snapshot(), before) {
					t.Fatalf("%s: refused write-back changed the stored path", refused.why)
				}
			}
			scheme.counters[deepest] = saved
			if err := store.WritePathFrom(leaf, occupiedPath(levels, z, z, blockBytes)); err != nil {
				t.Fatalf("corrected write-back refused: %v", err)
			}
			if bytes.Equal(snapshot(), before) {
				t.Fatal("corrected write-back did not land")
			}
		})
	}
}

// TestFailedVerificationLeavesStashUntouched: a tampered path fails
// VerifyPath before any bucket is opened, so the read hands its sink no
// block and an ORAM's stash keeps exactly what it held.
func TestFailedVerificationLeavesStashUntouched(t *testing.T) {
	const leafLevel, z, blockBytes = 4, 4, 16
	tree := treemath.New(leafLevel)
	for name, backing := range failClosedBackings(t, tree.NumBuckets(), PaddedBucketBytes(&CounterScheme{}, z, blockBytes)) {
		t.Run(name, func(t *testing.T) {
			scheme, _ := NewCounterScheme(testKey, tree.NumBuckets())
			auth := NewAuthTree(leafLevel, z, blockBytes, scheme)
			o, store := buildORAMOver(t, scheme, auth, backing)
			for a := uint64(0); a < 40; a++ {
				if _, err := o.Access(a, core.OpWrite, fill(byte(a), blockBytes)); err != nil {
					t.Fatal(err)
				}
			}
			stash := fmt.Sprint(stashAddrs(o))
			for flat := uint64(0); flat < tree.NumBuckets(); flat++ {
				store.TamperBucket(flat, 0x5a)
			}
			sink := &countSink{buf: make([]byte, blockBytes)}
			if err := store.ReadPathInto(3, nil, sink); err == nil || sink.n != 0 {
				t.Fatalf("tampered read: err=%v, %d blocks emitted", err, sink.n)
			}
			if _, err := o.Access(7, core.OpRead, nil); err == nil {
				t.Fatal("tampered access accepted")
			}
			if got := fmt.Sprint(stashAddrs(o)); got != stash {
				t.Fatalf("failed verification changed the stash: %s, was %s", got, stash)
			}
		})
	}
}

// buildORAMOver is buildORAM's ORAM over an authenticated store on
// backing.
func buildORAMOver(t *testing.T, scheme Scheme, auth *integrity.Tree, backing storage.Storage) (*core.ORAM, *Store) {
	t.Helper()
	p := core.Params{LeafLevel: 4, Z: 4, BlockBytes: 16, Blocks: 64, StashCapacity: 80, BackgroundEviction: true}
	store, err := NewStore(StoreConfig{LeafLevel: p.LeafLevel, Z: p.Z, BlockBytes: p.BlockBytes, Scheme: scheme, Auth: auth, Backing: backing})
	if err != nil {
		t.Fatal(err)
	}
	return wireORAM(t, p, store, 5), store
}

// stashAddrs lists the stash's addresses in order.
func stashAddrs(o *core.ORAM) []uint64 {
	out := make([]uint64, o.StashSize())
	for i := range out {
		out[i] = o.StashAddr(i)
	}
	return out
}
