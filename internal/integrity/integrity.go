// Package integrity implements the paper's Path ORAM integrity-verification
// layer (Section 5, Figure 13): an authentication tree that mirrors the
// ORAM tree, with two child-valid bits per bucket so the tree never has to
// be initialized — uninitialized ("random DRAM") buckets are masked out of
// every hash until they are first written.
//
// Per ORAM access the layer reads at most L sibling hashes and the path's
// valid bits, recomputes the path hashes bottom-up, compares against the
// on-chip root hash, and after write-back stores L updated hashes — far
// cheaper than the strawman Merkle tree over data blocks, which needs
// Z(L+1)^2 hashes per access.
package integrity

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"repro/internal/treemath"
)

// HashSize is the truncated hash width in bytes (the paper uses 128-bit
// hashes; we truncate SHA-256).
const HashSize = 16

// Hash is one authentication-tree node value.
type Hash [HashSize]byte

// ErrVerify reports an authenticity or freshness violation: the external
// memory does not match what the processor wrote.
var ErrVerify = errors.New("integrity: path verification failed (tampered or stale external memory)")

// Tree is the authentication tree. hashes and valid live in external
// memory conceptually (alongside each ORAM bucket); only the root hash and
// the root's child-valid flags are trusted on-chip state.
type Tree struct {
	tree        treemath.Tree
	bucketBytes int // ciphertext bytes hashed per bucket

	hashes []Hash  // external: one per bucket
	valid  []uint8 // external: bit0 = left child valid, bit1 = right child valid

	rootHash   Hash // on-chip
	rootValid  uint8
	havePrefix bool

	// Stats
	hashReads, hashWrites, verifications uint64

	// Hashing scratch, so hashes allocate nothing: one digest, a masked
	// node's zero content, a node's fields after its content, the sum.
	digest hash.Hash
	zero   []byte
	fields [2*HashSize + 8]byte
	sum    [sha256.Size]byte
}

// New builds an authentication tree for an ORAM tree whose (encrypted)
// buckets are bucketBytes long. No initialization pass over external
// memory is needed — that is the point of the valid bits.
func New(tr treemath.Tree, bucketBytes int) *Tree {
	t := &Tree{
		tree:        tr,
		bucketBytes: bucketBytes,
		hashes:      make([]Hash, tr.NumBuckets()),
		valid:       make([]uint8, tr.NumBuckets()),
		digest:      sha256.New(),
		zero:        make([]byte, bucketBytes),
	}
	// h0 starts as the hash of an all-invalid, all-masked root (the
	// paper's "h0 = H(0)"): both flags zero, content and children masked.
	t.rootHash = t.hashNode(0, t.zero, Hash{}, Hash{})
	return t
}

// PathReachability returns, for each level of the path to leaf, whether the
// bucket was reachable at the start of the access (Section 5's
// reachable(): every valid bit on the way down from the root is set).
func (t *Tree) PathReachability(leaf uint64) []bool {
	out := make([]bool, t.tree.Levels())
	t.FillReachability(leaf, out)
	return out
}

// FillReachability is PathReachability into out, one flag per level.
func (t *Tree) FillReachability(leaf uint64, out []bool) {
	// The root's content is masked by (f00 ∨ f01) ∧ B0 in the hash, so its
	// content is only meaningful after the first write-back.
	out[0] = t.rootValid != 0
	for d := 1; d <= t.tree.LeafLevel(); d++ {
		flat := t.tree.PathBucket(leaf, d)
		bit := uint8(1) << uint((flat-1)%2)
		out[d] = out[d-1] && t.flags(t.tree.Parent(flat))&bit != 0
	}
}

// VerifyPath checks the authenticity and freshness of the ciphertext
// buckets just read along the path to leaf (cts[d] is the level-d bucket).
// It must be called before UpdatePath for the same access.
func (t *Tree) VerifyPath(leaf uint64, cts [][]byte) error {
	if len(cts) != t.tree.Levels() {
		return fmt.Errorf("integrity: got %d buckets, want %d", len(cts), t.tree.Levels())
	}
	t.verifications++
	if t.pathHash(leaf, cts, false) != t.rootHash {
		return ErrVerify
	}
	return nil
}

// UpdatePath recomputes and stores the authentication state after the
// write-back of the path to leaf. reach must be the PathReachability
// observed at the start of the access (before valid bits were updated);
// newCts are the freshly written ciphertexts.
func (t *Tree) UpdatePath(leaf uint64, newCts [][]byte, reach []bool) error {
	if len(newCts) != t.tree.Levels() || len(reach) != t.tree.Levels() {
		return fmt.Errorf("integrity: got %d buckets / %d reach flags, want %d",
			len(newCts), len(reach), t.tree.Levels())
	}
	l := t.tree.LeafLevel()
	if l == 0 {
		t.rootValid = 3 // mark the root's content as written
	} else {
		// The leaf bucket has no children; force its bits clean once
		// written.
		t.valid[t.tree.PathBucket(leaf, l)] = 0
	}
	// Step 5 of the paper: along the path, the child-valid bit pointing at
	// the next path bucket becomes 1; the other child keeps its old bit
	// only if this bucket was reachable (otherwise its bits are garbage).
	for d := 0; d < l; d++ {
		flat := t.tree.PathBucket(leaf, d)
		pathBit := uint8(1) << uint((t.tree.PathBucket(leaf, d+1)-1)%2)
		flags := pathBit
		if reach[d] {
			flags |= t.flags(flat) &^ pathBit
		}
		if flat == 0 {
			t.rootValid = flags
		} else {
			t.valid[flat] = flags
		}
	}
	// The paper writes back the L non-root hashes; the root hash stays
	// on-chip.
	t.rootHash = t.pathHash(leaf, newCts, true)
	return nil
}

// pathHash recomputes the hashes of the path to leaf bottom-up over cts
// (cts[d] is the level-d bucket) and returns the root's, reading one
// sibling hash per level from external memory and, with store set,
// writing back every non-root hash. Only reachable buckets contribute real
// content: an invalid child is masked (f ∧ h in the paper), so below the
// reachable frontier everything is masked, exactly reproducing the on-chip
// root for untouched memory. A single-bucket tree's root doubles as its
// leaf and keeps the interior masking, so pristine memory verifies.
func (t *Tree) pathHash(leaf uint64, cts [][]byte, store bool) Hash {
	l := t.tree.LeafLevel()
	if l == 0 {
		return t.hashNode(t.rootValid, cts[0], Hash{}, Hash{})
	}
	child := t.tree.PathBucket(leaf, l)
	h := t.leafHash(cts[l])
	if store {
		t.storeHash(child, h)
	}
	for d := l - 1; d >= 0; d-- {
		flat := t.tree.PathBucket(leaf, d)
		flags := t.flags(flat)
		hl, hr := h, t.siblingHash(t.tree.Sibling(child))
		if child%2 == 0 { // the path child is the right child
			hl, hr = hr, hl
		}
		if flags&1 == 0 {
			hl = Hash{}
		}
		if flags&2 == 0 {
			hr = Hash{}
		}
		h = t.hashNode(flags, cts[d], hl, hr)
		if store && flat != 0 {
			t.storeHash(flat, h)
		}
		child = flat
	}
	return h
}

// flags returns a bucket's child-valid bits: on-chip for the root,
// external for every other bucket.
func (t *Tree) flags(flat uint64) uint8 {
	if flat == 0 {
		return t.rootValid
	}
	return t.valid[flat]
}

// siblingHash reads a sibling hash from external memory (counted toward
// the per-access hash-read budget the paper reports).
func (t *Tree) siblingHash(flat uint64) Hash {
	t.hashReads++
	return t.hashes[flat]
}

func (t *Tree) storeHash(flat uint64, h Hash) {
	t.hashWrites++
	t.hashes[flat] = h
}

// leafHash is H(B) for leaf buckets (Figure 13).
func (t *Tree) leafHash(ct []byte) Hash {
	sum := sha256.Sum256(ct)
	var h Hash
	copy(h[:], sum[:HashSize])
	return h
}

// hashNode is H(f0 || f1 || ((f0 ∨ f1) ∧ B) || hl || hr) for interior
// nodes. Children hashes arrive pre-masked by the caller.
func (t *Tree) hashNode(flags uint8, ct []byte, hl, hr Hash) Hash {
	hsh := t.digest
	hsh.Reset()
	t.fields[0], t.fields[1] = flags&1, (flags>>1)&1
	hsh.Write(t.fields[:2])
	if flags&3 != 0 {
		hsh.Write(ct)
	} else {
		// (f0 ∨ f1) ∧ B: an unreachable interior node contributes zeros,
		// making the pristine root hash independent of memory contents.
		if len(t.zero) < len(ct) {
			t.zero = make([]byte, len(ct))
		}
		hsh.Write(t.zero[:len(ct)])
	}
	copy(t.fields[:], hl[:])
	copy(t.fields[HashSize:], hr[:])
	binary.LittleEndian.PutUint64(t.fields[2*HashSize:], uint64(len(ct)))
	hsh.Write(t.fields[:])
	var h Hash
	copy(h[:], hsh.Sum(t.sum[:0]))
	return h
}

// Stats reports cumulative external hash traffic and verification count.
// Per access the paper's bound is at most L sibling-hash reads and L hash
// writes.
func (t *Tree) Stats() (hashReads, hashWrites, verifications uint64) {
	return t.hashReads, t.hashWrites, t.verifications
}

// CorruptHash overwrites a stored hash (test hook simulating external
// memory tampering).
func (t *Tree) CorruptHash(flat uint64, h Hash) { t.hashes[flat] = h }

// CorruptValid overwrites a bucket's stored child-valid bits (test hook:
// the bits live in untrusted memory and must be covered by the hashes).
func (t *Tree) CorruptValid(flat uint64, flags uint8) {
	if flat == 0 {
		return // the root's flags are on-chip and not corruptible
	}
	t.valid[flat] = flags & 3
}
