package storage_test

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

func fillRand(r *rand.Rand, b []byte) {
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
}

// writeOne writes one record as a batch of one.
func writeOne(s storage.Storage, flat uint64, rec []byte) error {
	return s.WriteBuckets([]uint64{flat}, [][]byte{rec})
}

// readOne reads one record as a batch of one.
func readOne(t *testing.T, s storage.Storage, flat uint64) []byte {
	t.Helper()
	dst := make([][]byte, 1)
	if err := s.ReadBuckets([]uint64{flat}, dst); err != nil {
		t.Fatal(err)
	}
	return dst[0]
}

// TestStorageMemFileEquivalence drives the same random write/read
// sequence through the arena and the file backend and requires identical
// records, then reopens the file and requires the bytes to have
// persisted.
func TestStorageMemFileEquivalence(t *testing.T) {
	const (
		numBuckets = 31
		stride     = 128
	)
	dir := t.TempDir()
	mem, err := storage.NewMem(numBuckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tree.oram")
	file, err := storage.OpenFile(path, numBuckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	rec := make([]byte, stride)
	for i := 0; i < 500; i++ {
		flat := uint64(r.Intn(numBuckets))
		fillRand(r, rec)
		if err := writeOne(mem, flat, rec); err != nil {
			t.Fatal(err)
		}
		if err := writeOne(file, flat, rec); err != nil {
			t.Fatal(err)
		}
	}
	for flat := uint64(0); flat < numBuckets; flat++ {
		if !bytes.Equal(readOne(t, mem, flat), readOne(t, file, flat)) {
			t.Fatalf("bucket %d differs between mem and file", flat)
		}
	}
	if err := file.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	re, err := storage.OpenFile(path, numBuckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for flat := uint64(0); flat < numBuckets; flat++ {
		if !bytes.Equal(readOne(t, mem, flat), readOne(t, re, flat)) {
			t.Fatalf("bucket %d lost across reopen", flat)
		}
	}
}

// TestStorageFileGeometryValidation pins the header checks: a reopen
// with the wrong stride, bucket count, or magic must fail loudly.
func TestStorageFileGeometryValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.oram")
	f, err := storage.OpenFile(path, 15, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenFile(path, 15, 128); err == nil {
		t.Fatal("stride mismatch not rejected")
	}
	if _, err := storage.OpenFile(path, 31, 64); err == nil {
		t.Fatal("bucket-count mismatch not rejected")
	}
	if _, err := storage.OpenFile(path, 15, 63); err == nil {
		t.Fatal("unaligned stride not rejected")
	}
}

// TestStorageBatchedVariants pins the path-granularity calls and the
// checks shared by every backend: reads check the range, writes also
// require every record to be exactly one stride — a nil record included —
// and a rejected batch leaves every bucket as it was.
func TestStorageBatchedVariants(t *testing.T) {
	backends := map[string]storage.Storage{}
	mem, err := storage.NewMem(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	backends["mem"] = mem
	file, err := storage.OpenFile(filepath.Join(t.TempDir(), "t.oram"), 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	backends["file"] = file
	wal, err := storage.OpenWAL(mustMem(t, 7, 64), filepath.Join(t.TempDir(), "t.wal"), storage.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	backends["wal"] = wal
	for name, s := range backends {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			flats := []uint64{0, 2, 6}
			recs := make([][]byte, len(flats))
			r := rand.New(rand.NewSource(7))
			for i := range recs {
				recs[i] = make([]byte, 64)
				fillRand(r, recs[i])
			}
			if err := s.WriteBuckets(flats, recs); err != nil {
				t.Fatal(err)
			}
			dst := make([][]byte, len(flats))
			if err := s.ReadBuckets(flats, dst); err != nil {
				t.Fatal(err)
			}
			for i := range flats {
				if !bytes.Equal(dst[i], recs[i]) {
					t.Fatalf("bucket %d round-trip mismatch", flats[i])
				}
			}
			for _, bad := range []struct {
				name  string
				flats []uint64
				recs  [][]byte
			}{
				{"out-of-range bucket", []uint64{7}, recs[:1]},
				{"short record", []uint64{0}, [][]byte{recs[0][:10]}},
				{"nil record", []uint64{2}, [][]byte{nil}},
				{"nil record after a good one", []uint64{0, 2}, [][]byte{recs[1], nil}},
				{"length-mismatched batch", flats, recs[:2]},
			} {
				if err := s.WriteBuckets(bad.flats, bad.recs); err == nil {
					t.Fatalf("%s accepted", bad.name)
				}
			}
			if err := s.ReadBuckets([]uint64{7}, make([][]byte, 1)); err == nil {
				t.Fatal("out-of-range read accepted")
			}
			if err := s.ReadBuckets(flats, dst[:2]); err == nil {
				t.Fatal("length-mismatched read accepted")
			}
			for i, flat := range flats {
				if !bytes.Equal(readOne(t, s, flat), recs[i]) {
					t.Fatalf("bucket %d changed by a rejected write", flat)
				}
			}
		})
	}
}

func mustMem(t testing.TB, buckets uint64, stride int) *storage.Mem {
	t.Helper()
	m, err := storage.NewMem(buckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
