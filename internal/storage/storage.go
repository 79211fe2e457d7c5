// Package storage is the bucket-granularity persistence seam beneath the
// ORAM tree stores. A Storage holds one fixed-stride record per flat
// bucket index and nothing else — no serialization, no encryption, no
// path semantics — so the same interface can be backed by an in-memory
// arena (Mem), a flat mmap'd tree file (File), or a write-ahead log
// wrapping either (WAL). Its I/O is path-batched only: one ReadBuckets or
// WriteBuckets call carries a whole path (or one bucket, as a batch of
// one). The serializing store (internal/encrypt) is its one client: it
// writes its padded sealed buckets — ciphertext, or plaintext under the
// identity scheme — through a Storage, so every pathoram.Backend composes
// with every Storage.
package storage

import "fmt"

// RecordAlign is the node alignment of bucket records: every record
// length is padded to a multiple of it, the DRAM access granularity
// (Section 2.4), so a record never straddles an access-granule boundary
// in the file or the arena.
const RecordAlign = 64

// Storage stores one fixed-length record per bucket of a flattened ORAM
// tree. Records are exactly Stride() bytes; flat indices run
// [0, NumBuckets()).
//
// ReadBuckets may return slices aliasing internal memory (the arena or the
// mmap'd file); aliases stay valid until the next write of the same
// bucket, and mutating them bypasses the write path (only the
// tamper-simulation test hooks do). WriteBuckets copies the caller's
// records in — callers keep their buffers — and requires every record to
// be exactly Stride() bytes: a batch with one short, long or nil record is
// rejected whole, before anything is logged or written.
//
// WriteBuckets commits the records of one path as a unit: the WAL
// implementation logs the whole call as a single atomic frame, so a
// crash either keeps all of a path write-back or none of it.
//
// LendBuckets and CommitLent are WriteBuckets without the caller's
// buffers: LendBuckets sets dst[i] to a writable record for bucket
// flats[i] (the stored record itself in Mem and File, a slot of the next
// log frame in the WAL), the caller fills each whole and writes into one
// only once nothing can stop the commit, and CommitLent commits them.
//
// Sync is the epoch barrier: when it returns, every write acknowledged
// before the call is durable (msync for File, checkpoint-and-truncate
// for WAL, no-op for Mem). Close releases OS resources after a final
// Sync; a closed Storage rejects further I/O.
type Storage interface {
	NumBuckets() uint64
	Stride() int
	ReadBuckets(flats []uint64, dst [][]byte) error
	WriteBuckets(flats []uint64, recs [][]byte) error
	LendBuckets(flats []uint64, dst [][]byte) error
	CommitLent() error
	Sync() error
	Close() error
	// MemoryBytes reports the external-memory footprint of the tree
	// (arena bytes, mapped file bytes, plus any overlay the WAL holds).
	MemoryBytes() uint64
}

// ErrClosed is returned by operations on a closed Storage.
var ErrClosed = fmt.Errorf("storage: closed")

// checkRead validates a read batch over numBuckets buckets: matching
// lengths and every bucket in range.
func checkRead(numBuckets uint64, flats []uint64, dst [][]byte) error {
	if len(flats) != len(dst) {
		return fmt.Errorf("storage: %d flats but %d dst slots", len(flats), len(dst))
	}
	for _, flat := range flats {
		if flat >= numBuckets {
			return fmt.Errorf("storage: bucket %d out of range (have %d)", flat, numBuckets)
		}
	}
	return nil
}

// checkWrite validates a whole write batch before any of it is applied:
// matching lengths, every bucket in range, every record exactly one
// stride.
func checkWrite(s Storage, flats []uint64, recs [][]byte) error {
	if err := checkRead(s.NumBuckets(), flats, recs); err != nil {
		return err
	}
	for i, flat := range flats {
		if len(recs[i]) != s.Stride() {
			return fmt.Errorf("storage: record for bucket %d is %dB, want stride %dB", flat, len(recs[i]), s.Stride())
		}
	}
	return nil
}
