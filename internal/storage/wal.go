package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// WAL makes any Storage crash-consistent for the deferred write-back
// pipeline: every WriteBuckets call is serialized into one CRC-framed
// log record and appended to the log file BEFORE it is acknowledged, and
// the acknowledged records are held in an in-memory overlay that serves
// reads. An append reaches the OS file cache before it is acknowledged
// and the disk at the next checkpoint's log fsync (group durability).
// The inner Storage is only touched at checkpoint time (Sync):
// log fsync -> apply overlay to inner -> inner.Sync -> truncate log.
// Because the inner tree file therefore never holds un-logged data, the
// durable state at any instant is exactly (last checkpoint image) +
// (logged frame prefix), and recovery is a pure replay: OpenWAL parses
// the longest valid frame prefix of the log (a torn tail is expected
// after a crash and simply ignored), applies it to the inner Storage in
// order, and checkpoints. Replay is idempotent — frames are whole-record
// overwrites applied oldest-first — so a crash during a previous
// checkpoint's apply phase re-replays to the same bytes.
//
// The overlay is bounded by CheckpointEvery (self-checkpoint after that
// many frames) and emptied on every explicit Sync, which the ORAM layer
// calls on Flush — the epoch barrier.
type WAL struct {
	inner Storage
	f     *os.File
	path  string
	cfg   WALConfig

	// overlay holds the newest acknowledged record per dirty bucket;
	// buffers are owned by the WAL and reused across epochs.
	overlay map[uint64][]byte
	free    [][]byte // spare record buffers from previous epochs

	frames    int // frames in the log since the last checkpoint
	seq       uint64
	recovered int
	frameBuf  []byte // the frame staged last
	applyIDs  []uint64
	applyRecs [][]byte
	err       error // wedged by a simulated fault; sticky
	closed    bool
}

// Op names the WAL's crash-relevant steps for the fault-injection hook.
type Op int

// The fault-injectable steps, in the order they occur: frame append,
// log fsync, per-bucket apply to the inner storage, inner Sync, log
// truncate.
const (
	OpAppend Op = iota
	OpSyncLog
	OpApply
	OpSyncInner
	OpTruncate
)

func (o Op) String() string {
	switch o {
	case OpAppend:
		return "append"
	case OpSyncLog:
		return "sync-log"
	case OpApply:
		return "apply"
	case OpSyncInner:
		return "sync-inner"
	case OpTruncate:
		return "truncate"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// WALConfig parameterizes a WAL.
type WALConfig struct {
	// CheckpointEvery, when > 0, self-checkpoints after that many logged
	// frames, bounding both the overlay and the replay work after a
	// crash; 0 checkpoints only on explicit Sync (the epoch barrier).
	CheckpointEvery int
	// Fault, when non-nil, is consulted before every crash-relevant step
	// with a monotone sequence number. A non-nil return simulates the
	// process dying at that point: the step does not happen and the WAL
	// wedges — every later operation fails with the same error. Test
	// hook for the crash-recovery property suite.
	Fault func(op Op, seq uint64) error
}

// frame layout: u32 payload length, u32 CRC-32 (IEEE) of the payload,
// payload = u32 bucket count then count x (u64 flat, stride record bytes).
const frameHeaderBytes = 8

// OpenWAL wraps inner with a write-ahead log at path, first replaying
// any valid frame prefix left by a crash (and checkpointing it into
// inner). The log file is then held open for appends.
func OpenWAL(inner Storage, path string, cfg WALConfig) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	w := &WAL{
		inner:   inner,
		f:       f,
		path:    path,
		cfg:     cfg,
		overlay: make(map[uint64][]byte),
	}
	n, err := ReplayLog(path, inner.Stride(), func(flats []uint64, recs [][]byte) error {
		return inner.WriteBuckets(flats, recs)
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	w.recovered = n
	if n > 0 {
		if err := inner.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: wal recovery sync: %w", err)
		}
	}
	// Truncate even a torn-tail-only log so appends start clean.
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: wal recovery truncate: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// ReplayLog parses the longest valid frame prefix of the log at path and
// hands each frame, oldest first, to apply. It returns the number of
// complete frames seen; a torn or corrupt tail terminates the replay
// without error (that is the expected post-crash state). Exposed so the
// crash-recovery tests can reconstruct the durable state independently
// of OpenWAL.
func ReplayLog(path string, stride int, apply func(flats []uint64, recs [][]byte) error) (int, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("storage: read wal: %w", err)
	}
	frames := 0
	for len(buf) >= frameHeaderBytes {
		plen := binary.LittleEndian.Uint32(buf[0:4])
		want := binary.LittleEndian.Uint32(buf[4:8])
		if uint64(len(buf)-frameHeaderBytes) < uint64(plen) {
			break // torn tail
		}
		payload := buf[frameHeaderBytes : frameHeaderBytes+int(plen)]
		if crc32.ChecksumIEEE(payload) != want {
			break // corrupt tail
		}
		flats, recs, ok := parseFrame(payload, stride)
		if !ok {
			break
		}
		if err := apply(flats, recs); err != nil {
			return frames, fmt.Errorf("storage: wal replay: %w", err)
		}
		frames++
		buf = buf[frameHeaderBytes+int(plen):]
	}
	return frames, nil
}

func parseFrame(payload []byte, stride int) (flats []uint64, recs [][]byte, ok bool) {
	if len(payload) < 4 {
		return nil, nil, false
	}
	count := int(binary.LittleEndian.Uint32(payload[0:4]))
	payload = payload[4:]
	per := 8 + stride
	if count < 0 || len(payload) != count*per {
		return nil, nil, false
	}
	flats = make([]uint64, count)
	recs = make([][]byte, count)
	for i := 0; i < count; i++ {
		flats[i] = binary.LittleEndian.Uint64(payload[i*per : i*per+8])
		recs[i] = payload[i*per+8 : (i+1)*per : (i+1)*per]
	}
	return flats, recs, true
}

// Recovered returns the number of frames replayed by OpenWAL.
func (w *WAL) Recovered() int { return w.recovered }

// PendingFrames returns the number of logged-but-not-checkpointed frames.
func (w *WAL) PendingFrames() int { return w.frames }

// NumBuckets implements Storage.
func (w *WAL) NumBuckets() uint64 { return w.inner.NumBuckets() }

// Stride implements Storage.
func (w *WAL) Stride() int { return w.inner.Stride() }

func (w *WAL) fault(op Op) error {
	if w.cfg.Fault == nil {
		return nil
	}
	w.seq++
	if err := w.cfg.Fault(op, w.seq); err != nil {
		w.err = fmt.Errorf("storage: wal killed at %s (seq %d): %w", op, w.seq, err)
		return w.err
	}
	return nil
}

// ReadBuckets implements Storage: the overlay (acknowledged, not yet
// checkpointed records) shadows the inner Storage.
func (w *WAL) ReadBuckets(flats []uint64, dst [][]byte) error {
	if err := w.usable(); err != nil {
		return err
	}
	if err := w.inner.ReadBuckets(flats, dst); err != nil {
		return err
	}
	for i, flat := range flats {
		if rec, ok := w.overlay[flat]; ok {
			dst[i] = rec
		}
	}
	return nil
}

// WriteBuckets implements Storage: log one frame for the whole path,
// then acknowledge by installing the records in the overlay.
func (w *WAL) WriteBuckets(flats []uint64, recs [][]byte) error {
	if err := w.usable(); err != nil {
		return err
	}
	if err := checkWrite(w, flats, recs); err != nil {
		return err
	}
	w.stage(flats)
	for i := range recs {
		copy(w.slot(i)[8:], recs[i])
	}
	return w.CommitLent()
}

// LendBuckets implements Storage: the lent records are the next log
// frame's.
func (w *WAL) LendBuckets(flats []uint64, dst [][]byte) error {
	if err := w.usable(); err != nil {
		return err
	}
	if err := checkRead(w.NumBuckets(), flats, dst); err != nil {
		return err
	}
	w.stage(flats)
	for i := range dst {
		dst[i] = w.slot(i)[8:]
	}
	return nil
}

// CommitLent implements Storage: log the staged frame before
// acknowledging its records in the overlay (reusing buffers from past
// epochs).
func (w *WAL) CommitLent() error {
	if err := w.usable(); err != nil {
		return err
	}
	if len(w.frameBuf) < frameHeaderBytes+4 {
		return fmt.Errorf("storage: wal commit without lent records")
	}
	if err := w.fault(OpAppend); err != nil {
		return err
	}
	payload := w.frameBuf[frameHeaderBytes:]
	binary.LittleEndian.PutUint32(w.frameBuf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.frameBuf[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(w.frameBuf); err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	for i := range int(binary.LittleEndian.Uint32(payload)) {
		slot := w.slot(i)
		flat := binary.LittleEndian.Uint64(slot)
		buf, ok := w.overlay[flat]
		if !ok {
			if n := len(w.free); n > 0 {
				buf, w.free = w.free[n-1], w.free[:n-1]
			} else {
				buf = make([]byte, w.Stride())
			}
		}
		copy(buf, slot[8:])
		w.overlay[flat] = buf
	}
	w.frames++
	if w.cfg.CheckpointEvery > 0 && w.frames >= w.cfg.CheckpointEvery {
		return w.checkpoint()
	}
	return nil
}

// usable reports a wedged or closed WAL.
func (w *WAL) usable() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	return nil
}

// stage sizes the next frame for flats and writes its bucket count and
// flat indices: slot(i) is then bucket i's flat index and record.
func (w *WAL) stage(flats []uint64) {
	need := frameHeaderBytes + 4 + len(flats)*(8+w.Stride())
	if cap(w.frameBuf) < need {
		w.frameBuf = make([]byte, need)
	}
	w.frameBuf = w.frameBuf[:need]
	binary.LittleEndian.PutUint32(w.frameBuf[frameHeaderBytes:], uint32(len(flats)))
	for i, flat := range flats {
		binary.LittleEndian.PutUint64(w.slot(i), flat)
	}
}

func (w *WAL) slot(i int) []byte {
	per := 8 + w.Stride()
	return w.frameBuf[frameHeaderBytes+4+i*per : frameHeaderBytes+4+(i+1)*per]
}

// checkpoint is the WAL epoch protocol: make the log durable, apply the
// overlay to the inner Storage (deterministic bucket order, one bucket per
// call so each apply is its own fault point), make the inner Storage
// durable, then truncate the log and recycle the overlay.
func (w *WAL) checkpoint() error {
	if err := w.fault(OpSyncLog); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: wal checkpoint sync: %w", err)
	}
	w.applyIDs = w.applyIDs[:0]
	for flat := range w.overlay {
		w.applyIDs = append(w.applyIDs, flat)
	}
	slices.Sort(w.applyIDs)
	w.applyRecs = w.applyRecs[:0]
	for _, flat := range w.applyIDs {
		w.applyRecs = append(w.applyRecs, w.overlay[flat])
	}
	for i := range w.applyIDs {
		if err := w.fault(OpApply); err != nil {
			return err
		}
		if err := w.inner.WriteBuckets(w.applyIDs[i:i+1], w.applyRecs[i:i+1]); err != nil {
			return fmt.Errorf("storage: wal apply: %w", err)
		}
	}
	if err := w.fault(OpSyncInner); err != nil {
		return err
	}
	if err := w.inner.Sync(); err != nil {
		return fmt.Errorf("storage: wal inner sync: %w", err)
	}
	if err := w.fault(OpTruncate); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: wal truncate: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: wal truncate sync: %w", err)
	}
	w.free = append(w.free, w.applyRecs...)
	clear(w.overlay)
	w.frames = 0
	return nil
}

// Sync implements Storage: an explicit checkpoint (the Flush/epoch
// barrier).
func (w *WAL) Sync() error {
	if err := w.usable(); err != nil {
		return err
	}
	return w.checkpoint()
}

// Close implements Storage: final checkpoint, then close the log and the
// inner Storage. Closing twice is allowed. A wedged WAL (simulated
// crash) skips the checkpoint — the crash already happened — but still
// releases file handles, and reports the wedge error.
func (w *WAL) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.err
	if err == nil {
		err = w.checkpoint()
	}
	if e := w.f.Close(); err == nil {
		err = e
	}
	if e := w.inner.Close(); err == nil {
		err = e
	}
	return err
}

// MemoryBytes implements Storage: the inner footprint plus the overlay.
func (w *WAL) MemoryBytes() uint64 {
	return w.inner.MemoryBytes() + uint64(len(w.overlay)+len(w.free))*uint64(w.Stride())
}

// LogPath returns the log file's path (for tests and stats).
func (w *WAL) LogPath() string { return w.path }
