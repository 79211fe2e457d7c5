package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// File layout: one flat tree file per ORAM. A fixed-size header page
// records the geometry (so a reopen with mismatched parameters fails
// loudly instead of decoding garbage), followed by NumBuckets records of
// exactly Stride bytes each at offset fileHeaderSize + flat*Stride.
// Stride is a multiple of RecordAlign and fileHeaderSize is page-sized,
// so records are node-aligned: no record straddles an access granule.
const (
	fileMagic      = uint64(0x45455254_4d41524f) // "ORAMTREE", little-endian
	fileVersion    = uint32(1)
	fileHeaderSize = 4096
)

// File is the persistent Storage: the whole tree lives in one flat file,
// mapped shared read/write. Reads alias the mapping (zero-copy), writes
// copy into it, and Sync is an msync(MS_SYNC) — the epoch barrier that
// makes everything written so far durable. A fresh file is created
// zero-filled, which decodes as an all-dummy tree: the serializing store
// reads address 0 as a dummy slot.
type File struct {
	f          *os.File
	mm         []byte
	numBuckets uint64
	stride     int
	closed     bool
}

// OpenFile creates or reopens the tree file at path for the given
// geometry. A new (empty) file is sized and stamped; an existing file
// must match the geometry exactly.
func OpenFile(path string, numBuckets uint64, stride int) (*File, error) {
	if numBuckets == 0 || stride <= 0 || stride%RecordAlign != 0 {
		return nil, fmt.Errorf("storage: bad file geometry (%d buckets, stride %d)", numBuckets, stride)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open tree file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat tree file: %w", err)
	}
	want := int64(fileHeaderSize) + int64(numBuckets)*int64(stride)
	fresh := st.Size() == 0
	if fresh {
		if err := f.Truncate(want); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: size tree file: %w", err)
		}
	} else if st.Size() != want {
		f.Close()
		return nil, fmt.Errorf("storage: tree file %s is %dB, want %dB for %d buckets x stride %d",
			path, st.Size(), want, numBuckets, stride)
	}
	mm, err := syscall.Mmap(int(f.Fd()), 0, int(want), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: mmap tree file: %w", err)
	}
	fs := &File{f: f, mm: mm, numBuckets: numBuckets, stride: stride}
	if fresh {
		binary.LittleEndian.PutUint64(mm[0:8], fileMagic)
		binary.LittleEndian.PutUint32(mm[8:12], fileVersion)
		binary.LittleEndian.PutUint32(mm[12:16], uint32(stride))
		binary.LittleEndian.PutUint64(mm[16:24], numBuckets)
		// Persist header and size now so a crash before the first epoch
		// leaves a valid (all-dummy) tree, not an unstampable file.
		if err := fs.Sync(); err != nil {
			fs.Close()
			return nil, err
		}
	} else {
		if got := binary.LittleEndian.Uint64(mm[0:8]); got != fileMagic {
			fs.Close()
			return nil, fmt.Errorf("storage: %s is not a tree file (magic %#x)", path, got)
		}
		if got := binary.LittleEndian.Uint32(mm[8:12]); got != fileVersion {
			fs.Close()
			return nil, fmt.Errorf("storage: tree file version %d, want %d", got, fileVersion)
		}
		if got := binary.LittleEndian.Uint32(mm[12:16]); int(got) != stride {
			fs.Close()
			return nil, fmt.Errorf("storage: tree file stride %d, want %d", got, stride)
		}
		if got := binary.LittleEndian.Uint64(mm[16:24]); got != numBuckets {
			fs.Close()
			return nil, fmt.Errorf("storage: tree file has %d buckets, want %d", got, numBuckets)
		}
	}
	return fs, nil
}

// NumBuckets implements Storage.
func (fs *File) NumBuckets() uint64 { return fs.numBuckets }

// Stride implements Storage.
func (fs *File) Stride() int { return fs.stride }

func (fs *File) record(flat uint64) []byte {
	off := uint64(fileHeaderSize) + flat*uint64(fs.stride)
	return fs.mm[off : off+uint64(fs.stride) : off+uint64(fs.stride)]
}

// ReadBuckets implements Storage; dst[i] receives a mapping alias.
func (fs *File) ReadBuckets(flats []uint64, dst [][]byte) error {
	if fs.closed {
		return ErrClosed
	}
	if err := checkRead(fs.numBuckets, flats, dst); err != nil {
		return err
	}
	for i, flat := range flats {
		dst[i] = fs.record(flat)
	}
	return nil
}

// WriteBuckets implements Storage; records are copied into the mapping.
func (fs *File) WriteBuckets(flats []uint64, recs [][]byte) error {
	if fs.closed {
		return ErrClosed
	}
	if err := checkWrite(fs, flats, recs); err != nil {
		return err
	}
	for i, flat := range flats {
		copy(fs.record(flat), recs[i])
	}
	return nil
}

// LendBuckets implements Storage; dst[i] receives a mapping alias.
func (fs *File) LendBuckets(flats []uint64, dst [][]byte) error { return fs.ReadBuckets(flats, dst) }

// CommitLent implements Storage: the lent records are the mapping's own.
func (fs *File) CommitLent() error {
	if fs.closed {
		return ErrClosed
	}
	return nil
}

// Sync implements Storage: msync(MS_SYNC) over the whole mapping — when
// it returns, every record written so far is on stable storage.
func (fs *File) Sync() error {
	if fs.closed {
		return ErrClosed
	}
	return msync(fs.mm)
}

// Close implements Storage: final msync, unmap, close. Closing twice is
// allowed (the second call is a no-op).
func (fs *File) Close() error {
	if fs.closed {
		return nil
	}
	fs.closed = true
	err := msync(fs.mm)
	if e := syscall.Munmap(fs.mm); err == nil {
		err = e
	}
	fs.mm = nil
	if e := fs.f.Close(); err == nil {
		err = e
	}
	return err
}

// MemoryBytes implements Storage: the mapped tree-file bytes.
func (fs *File) MemoryBytes() uint64 { return uint64(fileHeaderSize) + fs.numBuckets*uint64(fs.stride) }

// msync flushes a shared mapping to stable storage. The syscall package
// has no wrapper on Linux, so this issues SYS_MSYNC directly (no
// dependency outside the standard library).
func msync(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC, uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return fmt.Errorf("storage: msync: %w", errno)
	}
	return nil
}
