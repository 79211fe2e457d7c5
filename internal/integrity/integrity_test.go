package integrity

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/treemath"
)

const bucketBytes = 32

// randomCts returns garbage ciphertexts for a whole path, simulating
// uninitialized DRAM.
func randomCts(rng *rand.Rand, levels int) [][]byte {
	cts := make([][]byte, levels)
	for i := range cts {
		cts[i] = make([]byte, bucketBytes)
		rng.Read(cts[i])
	}
	return cts
}

// doAccess verifies then updates one path, as the ORAM interface does.
func doAccess(t *testing.T, at *Tree, leaf uint64, cts [][]byte) {
	t.Helper()
	reach := at.PathReachability(leaf)
	if err := at.VerifyPath(leaf, cts); err != nil {
		t.Fatalf("verify leaf %d: %v", leaf, err)
	}
	if err := at.UpdatePath(leaf, cts, reach); err != nil {
		t.Fatalf("update leaf %d: %v", leaf, err)
	}
}

// memModel models persistent external memory: an ORAM rewrites only the
// buckets of the accessed path, so verification must always be run against
// the current bucket contents.
type memModel struct {
	tr  treemath.Tree
	mem [][]byte
	rng *rand.Rand
}

func newMemModel(tr treemath.Tree, rng *rand.Rand) *memModel {
	m := &memModel{tr: tr, mem: make([][]byte, tr.NumBuckets()), rng: rng}
	for i := range m.mem {
		m.mem[i] = make([]byte, bucketBytes)
		rng.Read(m.mem[i]) // uninitialized DRAM
	}
	return m
}

func (m *memModel) path(leaf uint64) [][]byte {
	cts := make([][]byte, m.tr.Levels())
	for d := 0; d < m.tr.Levels(); d++ {
		cts[d] = m.mem[m.tr.PathBucket(leaf, d)]
	}
	return cts
}

// access verifies the current path contents, rewrites the path with fresh
// bytes (as randomized re-encryption would) and updates the auth tree.
func (m *memModel) access(t *testing.T, at *Tree, leaf uint64) {
	t.Helper()
	reach := at.PathReachability(leaf)
	if err := at.VerifyPath(leaf, m.path(leaf)); err != nil {
		t.Fatalf("verify leaf %d: %v", leaf, err)
	}
	for d := 0; d < m.tr.Levels(); d++ {
		m.rng.Read(m.mem[m.tr.PathBucket(leaf, d)])
	}
	if err := at.UpdatePath(leaf, m.path(leaf), reach); err != nil {
		t.Fatalf("update leaf %d: %v", leaf, err)
	}
}

func TestFreshTreeVerifiesGarbage(t *testing.T) {
	// No initialization pass: with all valid bits clear, any memory
	// contents must verify (they are masked out of the hashes).
	tr := treemath.New(4)
	at := New(tr, bucketBytes)
	rng := rand.New(rand.NewSource(1))
	for leaf := uint64(0); leaf < tr.NumLeaves(); leaf++ {
		if err := at.VerifyPath(leaf, randomCts(rng, tr.Levels())); err != nil {
			t.Fatalf("fresh verify leaf %d failed: %v", leaf, err)
		}
	}
}

func TestWriteThenVerify(t *testing.T) {
	tr := treemath.New(4)
	at := New(tr, bucketBytes)
	rng := rand.New(rand.NewSource(2))
	cts := randomCts(rng, tr.Levels())
	doAccess(t, at, 6, cts)
	// Same data must verify again.
	if err := at.VerifyPath(6, cts); err != nil {
		t.Fatalf("re-verify failed: %v", err)
	}
}

func TestCrossPathConsistency(t *testing.T) {
	// Update many random paths, then verify that every previously written
	// path still verifies with what was written there: sibling hashes and
	// valid bits must stay mutually consistent across paths.
	tr := treemath.New(5)
	at := New(tr, bucketBytes)
	rng := rand.New(rand.NewSource(3))
	latest := map[uint64][][]byte{}
	// Persistent bucket contents: a real ORAM rewrites only the accessed
	// path, so model external memory explicitly.
	mem := make([][]byte, tr.NumBuckets())
	for i := range mem {
		mem[i] = make([]byte, bucketBytes)
		rng.Read(mem[i]) // uninitialized DRAM
	}
	pathCts := func(leaf uint64) [][]byte {
		cts := make([][]byte, tr.Levels())
		for d := 0; d < tr.Levels(); d++ {
			cts[d] = mem[tr.PathBucket(leaf, d)]
		}
		return cts
	}
	for i := 0; i < 200; i++ {
		leaf := rng.Uint64() % tr.NumLeaves()
		cts := pathCts(leaf)
		reach := at.PathReachability(leaf)
		if err := at.VerifyPath(leaf, cts); err != nil {
			t.Fatalf("step %d: verify leaf %d: %v", i, leaf, err)
		}
		// Rewrite the path with fresh contents (as re-encryption would).
		for d := 0; d < tr.Levels(); d++ {
			rng.Read(mem[tr.PathBucket(leaf, d)])
		}
		cts = pathCts(leaf)
		if err := at.UpdatePath(leaf, cts, reach); err != nil {
			t.Fatal(err)
		}
		latest[leaf] = cts
	}
	for leaf := range latest {
		if err := at.VerifyPath(leaf, pathCts(leaf)); err != nil {
			t.Fatalf("final verify leaf %d: %v", leaf, err)
		}
	}
}

func TestDetectsContentTamper(t *testing.T) {
	tr := treemath.New(4)
	at := New(tr, bucketBytes)
	rng := rand.New(rand.NewSource(4))
	cts := randomCts(rng, tr.Levels())
	doAccess(t, at, 3, cts)
	for level := 0; level < tr.Levels(); level++ {
		tampered := make([][]byte, len(cts))
		for i := range cts {
			tampered[i] = append([]byte(nil), cts[i]...)
		}
		tampered[level][5] ^= 0x80
		if err := at.VerifyPath(3, tampered); !errors.Is(err, ErrVerify) {
			t.Errorf("tamper at level %d not detected: %v", level, err)
		}
	}
}

func TestDetectsHashTamper(t *testing.T) {
	tr := treemath.New(4)
	at := New(tr, bucketBytes)
	mem := newMemModel(tr, rand.New(rand.NewSource(5)))
	// Touch both halves of the tree so the root's two child-valid bits are
	// set and sibling hashes genuinely participate in verification.
	mem.access(t, at, 0)
	mem.access(t, at, 15)
	// Corrupt the stored hash of path 15's level-1 spine node — it is the
	// sibling hash path 0 reads.
	sib := tr.Sibling(tr.PathBucket(0, 1))
	at.CorruptHash(sib, Hash{0xde, 0xad})
	if err := at.VerifyPath(0, mem.path(0)); !errors.Is(err, ErrVerify) {
		t.Errorf("hash tamper not detected: %v", err)
	}
}

func TestDetectsValidBitTamper(t *testing.T) {
	tr := treemath.New(4)
	at := New(tr, bucketBytes)
	rng := rand.New(rand.NewSource(6))
	cts := randomCts(rng, tr.Levels())
	doAccess(t, at, 9, cts)
	// The valid bits live in untrusted memory; flipping one must break
	// verification because the bits are hash inputs.
	at.CorruptValid(tr.PathBucket(9, 1), 0)
	if err := at.VerifyPath(9, cts); !errors.Is(err, ErrVerify) {
		t.Errorf("valid-bit tamper not detected: %v", err)
	}
}

func TestDetectsBucketSwap(t *testing.T) {
	// Moving a validly hashed bucket elsewhere in the tree must fail:
	// position is bound by the tree structure.
	tr := treemath.New(3)
	at := New(tr, bucketBytes)
	mem := newMemModel(tr, rand.New(rand.NewSource(7)))
	mem.access(t, at, 0)
	mem.access(t, at, 7)
	// Present path 0 with path 7's (validly hashed) leaf bucket.
	swapped := mem.path(0)
	swapped[tr.LeafLevel()] = mem.mem[tr.PathBucket(7, tr.LeafLevel())]
	if err := at.VerifyPath(0, swapped); !errors.Is(err, ErrVerify) {
		t.Errorf("bucket swap not detected: %v", err)
	}
}

func TestReachabilityFrontier(t *testing.T) {
	tr := treemath.New(3)
	at := New(tr, bucketBytes)
	// Nothing reachable at first (root content itself is masked).
	reach := at.PathReachability(5)
	for d, r := range reach {
		if r {
			t.Errorf("fresh tree: level %d reachable", d)
		}
	}
	rng := rand.New(rand.NewSource(8))
	doAccess(t, at, 5, randomCts(rng, tr.Levels()))
	// Whole path 5 is now reachable.
	for d, r := range at.PathReachability(5) {
		if !r {
			t.Errorf("after access: level %d of path 5 not reachable", d)
		}
	}
	// Path 2 (leaf 010) shares only the root with path 5 (leaf 101).
	reach2 := at.PathReachability(2)
	if !reach2[0] {
		t.Error("root should be reachable after first access")
	}
	for d := 1; d < len(reach2); d++ {
		if reach2[d] {
			t.Errorf("level %d of untouched path 2 reachable", d)
		}
	}
	if !at.PathReachability(5)[3] {
		t.Error("leaf bucket of path 5 should be reachable")
	}
	if at.PathReachability(2)[2] {
		t.Error("level-2 bucket of path 2 should not be reachable")
	}
}

func TestHashTrafficBounds(t *testing.T) {
	// Section 5: at most L sibling hashes read per verification and L
	// hashes written per update.
	tr := treemath.New(6)
	at := New(tr, bucketBytes)
	rng := rand.New(rand.NewSource(9))
	mem := newMemModel(tr, rng)
	const accesses = 50
	for i := 0; i < accesses; i++ {
		mem.access(t, at, rng.Uint64()%tr.NumLeaves())
	}
	reads, writes, verifs := at.Stats()
	l := uint64(tr.LeafLevel())
	if verifs != accesses {
		t.Errorf("verifications=%d want %d", verifs, accesses)
	}
	// VerifyPath and UpdatePath each read at most L sibling hashes.
	if reads > 2*l*accesses {
		t.Errorf("hash reads %d exceed 2L per access", reads)
	}
	if writes > l*accesses+accesses {
		t.Errorf("hash writes %d exceed ~L per access", writes)
	}
}

func TestDegenerateSingleBucketTree(t *testing.T) {
	tr := treemath.New(0)
	at := New(tr, bucketBytes)
	rng := rand.New(rand.NewSource(10))
	garbage := randomCts(rng, 1)
	if err := at.VerifyPath(0, garbage); err != nil {
		t.Fatalf("fresh single-bucket verify failed: %v", err)
	}
	doAccess(t, at, 0, garbage)
	if err := at.VerifyPath(0, garbage); err != nil {
		t.Fatalf("re-verify failed: %v", err)
	}
	tampered := [][]byte{append([]byte(nil), garbage[0]...)}
	tampered[0][0] ^= 1
	if err := at.VerifyPath(0, tampered); !errors.Is(err, ErrVerify) {
		t.Errorf("single-bucket tamper not detected: %v", err)
	}
}

func TestVerifyPathArgumentChecks(t *testing.T) {
	at := New(treemath.New(2), bucketBytes)
	if err := at.VerifyPath(0, make([][]byte, 2)); err == nil {
		t.Error("short path accepted")
	}
	if err := at.UpdatePath(0, make([][]byte, 2), make([]bool, 3)); err == nil {
		t.Error("short update accepted")
	}
	if err := at.UpdatePath(0, make([][]byte, 3), make([]bool, 1)); err == nil {
		t.Error("short reach accepted")
	}
}
