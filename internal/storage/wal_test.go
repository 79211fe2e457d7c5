package storage_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// walFixture writes n random single-path frames (3 buckets each) through
// a WAL over a file backend without checkpointing, and returns the paths
// plus a mem shadow holding what was acknowledged.
func walFixture(t *testing.T, dir string, numBuckets uint64, stride, frames int, seed int64) (tree, wal string, shadow *storage.Mem) {
	t.Helper()
	tree = filepath.Join(dir, "tree.oram")
	wal = filepath.Join(dir, "tree.wal")
	inner, err := storage.OpenFile(tree, numBuckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.OpenWAL(inner, wal, storage.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	shadow = mustMem(t, numBuckets, stride)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < frames; i++ {
		flats := make([]uint64, 3)
		recs := make([][]byte, 3)
		for j := range flats {
			flats[j] = uint64(r.Intn(int(numBuckets)))
			recs[j] = make([]byte, stride)
			fillRand(r, recs[j])
		}
		if err := w.WriteBuckets(flats, recs); err != nil {
			t.Fatal(err)
		}
		if err := shadow.WriteBuckets(flats, recs); err != nil {
			t.Fatal(err)
		}
	}
	// Simulated crash: drop the WAL without checkpointing. The log file
	// keeps the appended frames; the tree file keeps only the (empty)
	// checkpoint image.
	return tree, wal, shadow
}

func requireSameBytes(t *testing.T, s storage.Storage, shadow *storage.Mem) {
	t.Helper()
	for flat := uint64(0); flat < s.NumBuckets(); flat++ {
		if !bytes.Equal(readOne(t, s, flat), readOne(t, shadow, flat)) {
			t.Fatalf("bucket %d differs from shadow", flat)
		}
	}
}

// TestWALRecoveryReplaysAcknowledgedFrames pins log-before-ack: frames
// acknowledged but never checkpointed must reappear after a reopen.
func TestWALRecoveryReplaysAcknowledgedFrames(t *testing.T) {
	const (
		numBuckets = 15
		stride     = 64
		frames     = 40
	)
	tree, wal, shadow := walFixture(t, t.TempDir(), numBuckets, stride, frames, 3)

	inner, err := storage.OpenFile(tree, numBuckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.OpenWAL(inner, wal, storage.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Recovered(); got != frames {
		t.Fatalf("recovered %d frames, want %d", got, frames)
	}
	requireSameBytes(t, w, shadow)
	// Recovery checkpointed: the log must be empty again.
	if st, err := os.Stat(wal); err != nil || st.Size() != 0 {
		t.Fatalf("log not truncated after recovery: size=%v err=%v", st.Size(), err)
	}
}

// TestWALTornTailRecovery truncates the log at every prefix length and
// requires recovery to replay exactly the longest valid frame prefix —
// never an error, never a partial frame.
func TestWALTornTailRecovery(t *testing.T) {
	const (
		numBuckets = 15
		stride     = 64
		frames     = 8
	)
	dir := t.TempDir()
	_, wal, _ := walFixture(t, dir, numBuckets, stride, frames, 5)
	logBytes, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := len(logBytes) / frames
	if frameLen*frames != len(logBytes) {
		t.Fatalf("unexpected log size %d for %d frames", len(logBytes), frames)
	}
	for cut := 0; cut <= len(logBytes); cut++ {
		tornPath := filepath.Join(dir, fmt.Sprintf("torn-%d.wal", cut))
		if err := os.WriteFile(tornPath, logBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		applied := 0
		n, err := storage.ReplayLog(tornPath, stride, func(flats []uint64, recs [][]byte) error {
			applied++
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if want := cut / frameLen; n != want || applied != want {
			t.Fatalf("cut %d: replayed %d frames, want %d", cut, n, want)
		}
		os.Remove(tornPath)
	}
}

// TestWALCorruptTailStopsReplay flips a byte in the last frame and
// requires replay to stop right before it.
func TestWALCorruptTailStopsReplay(t *testing.T) {
	const (
		numBuckets = 15
		stride     = 64
		frames     = 6
	)
	dir := t.TempDir()
	_, wal, _ := walFixture(t, dir, numBuckets, stride, frames, 9)
	logBytes, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := len(logBytes) / frames
	logBytes[(frames-1)*frameLen+frameLen/2] ^= 0xff
	if err := os.WriteFile(wal, logBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := storage.ReplayLog(wal, stride, func([]uint64, [][]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != frames-1 {
		t.Fatalf("replayed %d frames, want %d", n, frames-1)
	}
}

// TestWALCheckpointTruncatesAndPersists pins the epoch protocol: after
// Sync the log is empty, the overlay is drained into the inner file, and
// a plain reopen of the tree file (no WAL) sees the bytes.
func TestWALCheckpointTruncatesAndPersists(t *testing.T) {
	const (
		numBuckets = 15
		stride     = 64
	)
	dir := t.TempDir()
	tree := filepath.Join(dir, "tree.oram")
	wal := filepath.Join(dir, "tree.wal")
	inner, err := storage.OpenFile(tree, numBuckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.OpenWAL(inner, wal, storage.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	shadow := mustMem(t, numBuckets, stride)
	r := rand.New(rand.NewSource(11))
	rec := make([]byte, stride)
	for i := 0; i < 30; i++ {
		flat := uint64(r.Intn(numBuckets))
		fillRand(r, rec)
		if err := writeOne(w, flat, rec); err != nil {
			t.Fatal(err)
		}
		if err := writeOne(shadow, flat, rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.PendingFrames() == 0 {
		t.Fatal("expected pending frames before checkpoint")
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.PendingFrames() != 0 {
		t.Fatal("pending frames survived checkpoint")
	}
	if st, err := os.Stat(wal); err != nil || st.Size() != 0 {
		t.Fatalf("log not truncated: size=%v err=%v", st.Size(), err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := storage.OpenFile(tree, numBuckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameBytes(t, re, shadow)
}

// TestWALAutoCheckpoint pins CheckpointEvery: the overlay self-bounds.
func TestWALAutoCheckpoint(t *testing.T) {
	const (
		numBuckets = 15
		stride     = 64
	)
	dir := t.TempDir()
	inner, err := storage.OpenFile(filepath.Join(dir, "t.oram"), numBuckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.OpenWAL(inner, filepath.Join(dir, "t.wal"), storage.WALConfig{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := make([]byte, stride)
	for i := 0; i < 10; i++ {
		if err := writeOne(w, uint64(i%numBuckets), rec); err != nil {
			t.Fatal(err)
		}
		if w.PendingFrames() >= 4 {
			t.Fatalf("after write %d: %d pending frames, checkpoint at 4 never fired", i, w.PendingFrames())
		}
	}
}

// TestWALFaultWedges pins the crash simulation: once the fault hook
// fires, the faulted step does not happen and every later operation
// fails with the same error.
func TestWALFaultWedges(t *testing.T) {
	const (
		numBuckets = 15
		stride     = 64
	)
	dir := t.TempDir()
	inner, err := storage.OpenFile(filepath.Join(dir, "t.oram"), numBuckets, stride)
	if err != nil {
		t.Fatal(err)
	}
	killAt := uint64(3)
	boom := fmt.Errorf("boom")
	w, err := storage.OpenWAL(inner, filepath.Join(dir, "t.wal"), storage.WALConfig{
		Fault: func(op storage.Op, seq uint64) error {
			if seq >= killAt {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, stride)
	var firstErr error
	for i := 0; i < 6; i++ {
		if err := writeOne(w, uint64(i), rec); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("fault never fired")
	}
	if err := writeOne(w, 0, rec); err == nil {
		t.Fatal("wedged WAL accepted a write")
	}
	if err := w.ReadBuckets([]uint64{0}, make([][]byte, 1)); err == nil {
		t.Fatal("wedged WAL served a read")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("wedged WAL accepted a sync")
	}
	if err := w.Close(); err == nil {
		t.Fatal("wedged WAL closed cleanly")
	}
}

// TestWALRejectsNilRecord: a batch with a nil record is refused before
// its frame is logged, so neither a live read nor the replay after a
// crash sees a record the caller never supplied (a frame logged for it
// would carry whatever the reused frame buffer held last).
func TestWALRejectsNilRecord(t *testing.T) {
	const (
		numBuckets = 7
		stride     = 64
	)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "t.wal")
	w, err := storage.OpenWAL(mustMem(t, numBuckets, stride), logPath, storage.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := writeOne(w, 1, bytes.Repeat([]byte{0xAA}, stride)); err != nil {
		t.Fatal(err)
	}
	logSize := func() int64 {
		t.Helper()
		st, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	before := logSize()
	if err := writeOne(w, 2, nil); err == nil {
		t.Fatal("nil record accepted")
	}
	if after := logSize(); after != before {
		t.Fatalf("rejected write grew the log from %dB to %dB", before, after)
	}
	zero := make([]byte, stride)
	if got := readOne(t, w, 2); !bytes.Equal(got, zero) {
		t.Fatalf("live read of bucket 2 = % x, want zeros", got[:8])
	}

	// Crash now: replay a copy of the log into a fresh tree.
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(dir, "crashed.wal")
	if err := os.WriteFile(crashed, logBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := storage.OpenWAL(mustMem(t, numBuckets, stride), crashed, storage.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovered() != 1 {
		t.Fatalf("replayed %d frames, want only bucket 1's", re.Recovered())
	}
	if got := readOne(t, re, 2); !bytes.Equal(got, zero) {
		t.Fatalf("bucket 2 after replay = % x, want zeros", got[:8])
	}
}

// FuzzReplayLog feeds arbitrary bytes to the WAL frame parser. Whatever
// the log holds, replay must not panic; every frame it applies must carry
// one whole stride-sized record per bucket; the count it returns must be
// the number of frames applied; and replaying any truncation of the log
// must apply a prefix of the frames the whole log applies — a torn tail
// can only lose frames, never change or invent one.
func FuzzReplayLog(f *testing.F) {
	const stride = 16
	dir := f.TempDir()
	logPath := filepath.Join(dir, "seed.wal")
	w, err := storage.OpenWAL(mustMem(f, 7, stride), logPath, storage.WALConfig{})
	if err != nil {
		f.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	var frameEnds []int
	for n := 1; n <= 3; n++ {
		flats, recs := make([]uint64, n), make([][]byte, n)
		for i := range flats {
			flats[i] = uint64(r.Intn(7))
			recs[i] = make([]byte, stride)
			fillRand(r, recs[i])
		}
		if err := w.WriteBuckets(flats, recs); err != nil {
			f.Fatal(err)
		}
		st, err := os.Stat(logPath)
		if err != nil {
			f.Fatal(err)
		}
		frameEnds = append(frameEnds, int(st.Size()))
	}
	valid, err := os.ReadFile(logPath)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[frameEnds[0]+4] ^= 0x01 // the second frame's CRC
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, log []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		replay := func(b []byte) []string {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			var frames []string
			n, err := storage.ReplayLog(path, stride, func(flats []uint64, recs [][]byte) error {
				if len(flats) != len(recs) {
					t.Fatalf("frame %d: %d flats but %d records", len(frames), len(flats), len(recs))
				}
				frame := fmt.Sprint(flats)
				for _, rec := range recs {
					if len(rec) != stride {
						t.Fatalf("frame %d: %dB record, want %dB", len(frames), len(rec), stride)
					}
					frame += string(rec)
				}
				frames = append(frames, frame)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != len(frames) {
				t.Fatalf("ReplayLog returned %d, applied %d frames", n, len(frames))
			}
			return frames
		}
		full := replay(log)
		step := max(1, len(log)/64)
		for cut := 0; cut < len(log); cut += step {
			got := replay(log[:cut])
			if len(got) > len(full) {
				t.Fatalf("cut %d applied %d frames, the whole log %d", cut, len(got), len(full))
			}
			for i := range got {
				if got[i] != full[i] {
					t.Fatalf("cut %d: frame %d differs from the whole log's", cut, i)
				}
			}
		}
	})
}
