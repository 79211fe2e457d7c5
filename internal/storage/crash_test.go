package storage_test

// Full-stack crash-recovery property suite: a real client stack —
// core.ORAM with deferred write-back, over the encrypting store, over a
// WAL-wrapped mmap'd tree file — is killed at fuzzed points through the
// WAL's fault-injection hook, and the recovered tree is checked against
// an independently maintained shadow of exactly the writes the stack
// acknowledged. Everything is seeded, so the synchronous file-only run
// is a byte-exact reference for the fully flushed asynchronous one.
//
// The crash model (WALConfig.Fault): the faulted step does not happen
// and the WAL wedges. Appends are not fsynced one by one (group
// durability: the log is fsynced at the next checkpoint), so the only
// fault point inside WriteBuckets before acknowledgment is the frame
// append itself, and after a kill the durable state is exactly
//
//	(acknowledged writes)                    if the kill hit OpAppend,
//	(acknowledged writes) + (failed frame)   if it hit a checkpoint step
//
// — the second case is the classic ambiguity of a failed write that was
// already logged (an auto-checkpoint failing inside WriteBuckets). The
// suite asserts the recovered bytes equal the deterministic expectation
// for the observed kill, not merely one of several allowed outcomes.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/encrypt"
	"repro/internal/storage"
	"repro/internal/treemath"
)

const (
	crashLeafLevel  = 4 // 31 buckets, 16 leaves — small enough to fuzz many kills
	crashZ          = 4
	crashBlockBytes = 16
	crashBlocks     = 40
	crashOps        = 60
	crashCkptEvery  = 8 // auto-checkpoints interleave with appends mid-run
	crashDeferred   = 3 // small queue: inline completions mix into the stream
	crashSeed       = 0x7e57_0a11
)

var crashKey = bytes.Repeat([]byte{0x5A}, encrypt.KeySize)

// crashStack is one assembled client stack over a file (+ optional WAL).
type crashStack struct {
	oram     *core.ORAM
	backing  storage.Storage // what the encrypting store writes through
	wal      *storage.WAL    // nil for the file-only reference
	rec      *ackRecorder    // nil unless shadow recording was requested
	treePath string
	logPath  string
}

// ackRecorder sits between the encrypting store and the WAL and mirrors
// every acknowledged write into a shadow Mem — the ground truth for
// "state the client was promised" at any kill point. The store writes
// through LendBuckets and CommitLent, so the recorder keeps each lent
// batch until its commit. The first failed write is kept separately: it
// is the only frame that may have reached the log without being
// acknowledged.
type ackRecorder struct {
	storage.Storage
	shadow      *storage.Mem
	ackedFrames int
	lentFlats   []uint64
	lentRecs    [][]byte
	failedFlats []uint64
	failedRecs  [][]byte
	failed      bool
}

func (a *ackRecorder) WriteBuckets(flats []uint64, recs [][]byte) error {
	return a.record(flats, recs, a.Storage.WriteBuckets(flats, recs))
}

func (a *ackRecorder) LendBuckets(flats []uint64, dst [][]byte) error {
	a.lentFlats, a.lentRecs = flats, dst
	return a.Storage.LendBuckets(flats, dst)
}

func (a *ackRecorder) CommitLent() error {
	return a.record(a.lentFlats, a.lentRecs, a.Storage.CommitLent())
}

func (a *ackRecorder) record(flats []uint64, recs [][]byte, err error) error {
	if err != nil {
		if !a.failed {
			// Only the first failure can be log-resident: the wedged WAL
			// rejects every later call before touching the log.
			a.failed = true
			a.failedFlats = append([]uint64(nil), flats...)
			for _, r := range recs {
				a.failedRecs = append(a.failedRecs, append([]byte(nil), r...))
			}
		}
		return err
	}
	a.ackedFrames++
	return a.shadow.WriteBuckets(flats, recs)
}

func crashStride(t *testing.T) int {
	t.Helper()
	scheme, err := encrypt.NewCounterScheme(crashKey, treemath.New(crashLeafLevel).NumBuckets())
	if err != nil {
		t.Fatal(err)
	}
	return encrypt.PaddedBucketBytes(scheme, crashZ, crashBlockBytes)
}

// buildCrashStack assembles ORAM ← encrypt.Store ← [recorder ←] [WAL ←]
// File in dir. Identical seeds give bit-identical runs: the leaf source,
// the position map's initial assignment and the counter scheme's pads
// are all deterministic functions of (seed, key, write sequence).
func buildCrashStack(t *testing.T, dir string, useWAL, record, deferWB bool, fault func(storage.Op, uint64) error) *crashStack {
	t.Helper()
	tree := treemath.New(crashLeafLevel)
	scheme, err := encrypt.NewCounterScheme(crashKey, tree.NumBuckets())
	if err != nil {
		t.Fatal(err)
	}
	stride := encrypt.PaddedBucketBytes(scheme, crashZ, crashBlockBytes)
	s := &crashStack{
		treePath: filepath.Join(dir, "crash.tree"),
		logPath:  filepath.Join(dir, "crash.wal"),
	}
	f, err := storage.OpenFile(s.treePath, tree.NumBuckets(), stride)
	if err != nil {
		t.Fatal(err)
	}
	s.backing = f
	if useWAL {
		w, err := storage.OpenWAL(f, s.logPath, storage.WALConfig{CheckpointEvery: crashCkptEvery, Fault: fault})
		if err != nil {
			t.Fatal(err)
		}
		s.wal, s.backing = w, w
	}
	if record {
		shadow, err := storage.NewMem(tree.NumBuckets(), stride)
		if err != nil {
			t.Fatal(err)
		}
		s.rec = &ackRecorder{Storage: s.backing, shadow: shadow}
		s.backing = s.rec
	}
	store, err := encrypt.NewStore(encrypt.StoreConfig{
		LeafLevel:  crashLeafLevel,
		Z:          crashZ,
		BlockBytes: crashBlockBytes,
		Scheme:     scheme,
		Backing:    s.backing,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{
		LeafLevel:             crashLeafLevel,
		Z:                     crashZ,
		BlockBytes:            crashBlockBytes,
		Blocks:                crashBlocks,
		StashCapacity:         crashBlocks, // holds every block: never overflows
		DeferWriteBack:        deferWB,
		MaxDeferredWriteBacks: crashDeferred,
	}
	src := core.NewMathLeafSource(rand.New(rand.NewSource(crashSeed)))
	pos, err := core.NewOnChipPositionMap(p.Groups(), tree.NumLeaves(), src)
	if err != nil {
		t.Fatal(err)
	}
	if s.oram, err = core.New(p, store, pos, src); err != nil {
		t.Fatal(err)
	}
	return s
}

// driveCrashOps runs the deterministic workload — a seeded read/write mix
// ending in a Flush that drains every deferred write-back — and returns
// the first error (the simulated crash surfacing to the client).
func driveCrashOps(o *core.ORAM) error {
	rng := rand.New(rand.NewSource(crashSeed ^ 0x0dd))
	buf := make([]byte, crashBlockBytes)
	for i := 0; i < crashOps; i++ {
		addr := uint64(rng.Intn(crashBlocks))
		if rng.Intn(3) == 0 {
			if _, err := o.Access(addr, core.OpRead, nil); err != nil {
				return err
			}
			continue
		}
		rng.Read(buf) //nolint:errcheck // math/rand Read never fails
		if _, err := o.Access(addr, core.OpWrite, buf); err != nil {
			return err
		}
	}
	return o.Flush()
}

// referenceTree runs the synchronous, file-only stack to completion and
// returns the tree file's bytes — the no-crash ground truth.
func referenceTree(t *testing.T) []byte {
	t.Helper()
	s := buildCrashStack(t, t.TempDir(), false, false, false, nil)
	if err := driveCrashOps(s.oram); err != nil {
		t.Fatal(err)
	}
	if err := s.backing.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.backing.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(s.treePath)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStorageCrashAsyncWALMatchesSyncFile extends PR 3's bit-identity
// claim across the persistence seam: the deferred-write-back stack over
// WAL-over-file, once flushed and closed, leaves a tree file
// byte-identical to the synchronous file-only run of the same seed —
// ciphertext and all — and an empty (checkpointed) log.
func TestStorageCrashAsyncWALMatchesSyncFile(t *testing.T) {
	ref := referenceTree(t)
	s := buildCrashStack(t, t.TempDir(), true, false, true, nil)
	if err := driveCrashOps(s.oram); err != nil {
		t.Fatal(err)
	}
	if err := s.backing.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.backing.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.treePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("flushed async+WAL tree file differs from the synchronous reference")
	}
	if st, err := os.Stat(s.logPath); err != nil {
		t.Fatal(err)
	} else if st.Size() != 0 {
		t.Fatalf("closed WAL log holds %d bytes, want 0 (final checkpoint truncates)", st.Size())
	}
}

// countCrashSteps runs the async+WAL stack to completion with a counting
// fault hook and returns the total number of fault-consulted steps — the
// kill-point space of the fuzz test.
func countCrashSteps(t *testing.T) uint64 {
	t.Helper()
	var max uint64
	s := buildCrashStack(t, t.TempDir(), true, false, true, func(_ storage.Op, seq uint64) error {
		max = seq
		return nil
	})
	if err := driveCrashOps(s.oram); err != nil {
		t.Fatal(err)
	}
	if err := s.backing.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.backing.Close(); err != nil {
		t.Fatal(err)
	}
	return max
}

var errCrashKill = errors.New("crash-test kill")

// TestStorageCrashRecoveryFuzzedKillPoints kills the async+WAL stack at
// every boundary step and a fuzzed sample of interior steps, reopens the
// tree, and asserts the recovered bytes equal the deterministic
// expectation for the observed kill: the acknowledged-write shadow, plus
// the first failed frame exactly when that frame reached the log. Kills
// after the workload's final Flush must additionally reproduce the
// synchronous reference file byte for byte.
func TestStorageCrashRecoveryFuzzedKillPoints(t *testing.T) {
	total := countCrashSteps(t)
	if total < 10 {
		t.Fatalf("only %d fault steps; workload too small to fuzz", total)
	}
	ref := referenceTree(t)

	kills := map[uint64]bool{1: true, 2: true, 3: true, total - 2: true, total - 1: true, total: true}
	rng := rand.New(rand.NewSource(0xC0FFEE))
	for len(kills) < 16 {
		kills[1+uint64(rng.Int63n(int64(total)))] = true
	}
	for k := range kills {
		t.Run(fmt.Sprintf("kill=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			var killedOp storage.Op = -1
			s := buildCrashStack(t, dir, true, true, true, func(op storage.Op, seq uint64) error {
				if seq >= k {
					if killedOp < 0 {
						killedOp = op
					}
					return errCrashKill
				}
				return nil
			})
			opsErr := driveCrashOps(s.oram)
			syncErr := s.backing.Sync()
			s.backing.Close() //nolint:errcheck // a wedged close reports the kill; handles are released either way
			if killedOp < 0 {
				t.Fatalf("kill point %d never fired (run took fewer steps than the counting run)", k)
			}
			if opsErr != nil && !errors.Is(opsErr, errCrashKill) {
				t.Fatalf("client saw a non-kill error: %v", opsErr)
			}

			// The recovery a restarted process performs: reopen the tree
			// file and let OpenWAL replay the surviving frame prefix.
			replayed, err := storage.ReplayLog(s.logPath, crashStride(t), func([]uint64, [][]byte) error { return nil })
			if err != nil {
				t.Fatalf("replaying log: %v", err)
			}
			tree := treemath.New(crashLeafLevel)
			f2, err := storage.OpenFile(s.treePath, tree.NumBuckets(), crashStride(t))
			if err != nil {
				t.Fatalf("reopening tree: %v", err)
			}
			w2, err := storage.OpenWAL(f2, s.logPath, storage.WALConfig{})
			if err != nil {
				t.Fatalf("recovering WAL: %v", err)
			}
			if w2.Recovered() != replayed {
				t.Fatalf("OpenWAL replayed %d frames, independent ReplayLog saw %d", w2.Recovered(), replayed)
			}

			// Deterministic expectation: everything acknowledged, plus the
			// first failed frame iff the kill let it reach the log (any
			// checkpoint-step kill; an OpAppend kill precedes the write).
			expect := s.rec.shadow
			if s.rec.failed && killedOp != storage.OpAppend {
				if err := expect.WriteBuckets(s.rec.failedFlats, s.rec.failedRecs); err != nil {
					t.Fatal(err)
				}
			}
			for flat := uint64(0); flat < tree.NumBuckets(); flat++ {
				if !bytes.Equal(readOne(t, w2, flat), readOne(t, expect, flat)) {
					t.Fatalf("bucket %d diverges from the acknowledged-write shadow after recovery (killed at %v, %d frames acked)",
						flat, killedOp, s.rec.ackedFrames)
				}
			}
			if err := w2.Close(); err != nil {
				t.Fatalf("closing recovered WAL: %v", err)
			}

			// Kills after the final Flush (every append acknowledged) must
			// recover the exact synchronous reference image.
			if opsErr == nil {
				got, err := os.ReadFile(s.treePath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("post-Flush kill at %v recovered a tree differing from the synchronous reference", killedOp)
				}
				if syncErr == nil && killedOp != storage.OpTruncate && killedOp != storage.OpSyncInner && killedOp != storage.OpSyncLog && killedOp != storage.OpApply {
					t.Fatalf("Sync succeeded yet the kill fired at %v before Close", killedOp)
				}
			}
		})
	}
}
