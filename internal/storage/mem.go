package storage

import "fmt"

// Mem is the in-memory Storage: one flat arena, stride bytes per bucket.
// It is the zero-overhead backing for the serializing store's hot path —
// reads alias the arena and writes are a bounds-checked copy, so the
// seam adds no per-operation allocations.
type Mem struct {
	numBuckets uint64
	stride     int
	arena      []byte
	closed     bool
}

// NewMem allocates a zeroed arena for numBuckets records of stride bytes.
func NewMem(numBuckets uint64, stride int) (*Mem, error) {
	if numBuckets == 0 || stride <= 0 {
		return nil, fmt.Errorf("storage: bad geometry (%d buckets, stride %d)", numBuckets, stride)
	}
	return &Mem{
		numBuckets: numBuckets,
		stride:     stride,
		arena:      make([]byte, numBuckets*uint64(stride)),
	}, nil
}

// NumBuckets implements Storage.
func (m *Mem) NumBuckets() uint64 { return m.numBuckets }

// Stride implements Storage.
func (m *Mem) Stride() int { return m.stride }

// ReadBuckets implements Storage; dst[i] receives an arena alias.
func (m *Mem) ReadBuckets(flats []uint64, dst [][]byte) error {
	if m.closed {
		return ErrClosed
	}
	if err := checkRead(m.numBuckets, flats, dst); err != nil {
		return err
	}
	for i, flat := range flats {
		off := flat * uint64(m.stride)
		dst[i] = m.arena[off : off+uint64(m.stride) : off+uint64(m.stride)]
	}
	return nil
}

// WriteBuckets implements Storage; records are copied in.
func (m *Mem) WriteBuckets(flats []uint64, recs [][]byte) error {
	if m.closed {
		return ErrClosed
	}
	if err := checkWrite(m, flats, recs); err != nil {
		return err
	}
	for i, flat := range flats {
		copy(m.arena[flat*uint64(m.stride):], recs[i])
	}
	return nil
}

// LendBuckets implements Storage; dst[i] receives an arena alias.
func (m *Mem) LendBuckets(flats []uint64, dst [][]byte) error { return m.ReadBuckets(flats, dst) }

// CommitLent implements Storage: the lent records are the arena's own.
func (m *Mem) CommitLent() error { return m.Sync() }

// Sync implements Storage (a no-op: the arena is always "durable" for the
// lifetime of the process).
func (m *Mem) Sync() error {
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Storage. Closing twice is allowed.
func (m *Mem) Close() error {
	m.closed = true
	return nil
}

// MemoryBytes implements Storage.
func (m *Mem) MemoryBytes() uint64 { return uint64(len(m.arena)) }
