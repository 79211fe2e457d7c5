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
	}
	// h0 starts as the hash of an all-invalid, all-masked root (the
	// paper's "h0 = H(0)"): both flags zero, content and children masked.
	t.rootHash = t.hashNode(0, make([]byte, bucketBytes), Hash{}, Hash{})
	return t
}

// Reachable reports whether every valid bit on the path from the root to
// the bucket (exclusive of the bucket's own child bits) is set — i.e. the
// bucket has been written through ORAM operations at some point
// (Section 5's reachable()).
func (t *Tree) Reachable(flat uint64) bool {
	// Walk from the bucket up to the root checking the parent's bit.
	for flat != 0 {
		parent := (flat - 1) / 2
		bit := uint8(1) << uint((flat-1)%2) // left child has odd flat index
		var flags uint8
		if parent == 0 {
			flags = t.rootValid
		} else {
			flags = t.valid[parent]
		}
		if flags&bit == 0 {
			return false
		}
		flat = parent
	}
	return true
}

// PathReachability returns, for each level of the path to leaf, whether the
// bucket was reachable at the start of the access. The root is always
// reachable.
func (t *Tree) PathReachability(leaf uint64) []bool {
	out := make([]bool, t.tree.Levels())
	// The root's content is masked by (f00 ∨ f01) ∧ B0 in the hash, so its
	// content is only meaningful after the first write-back.
	out[0] = t.rootValid != 0
	flags := t.rootValid
	for d := 1; d <= t.tree.LeafLevel(); d++ {
		flat := t.tree.PathBucket(leaf, d)
		bit := uint8(1) << uint((flat-1)%2)
		out[d] = out[d-1] && flags&bit != 0
		if flat == 0 {
			flags = t.rootValid
		} else {
			flags = t.valid[flat]
		}
	}
	return out
}

// VerifyPath checks the authenticity and freshness of the ciphertext
// buckets just read along the path to leaf (cts[d] is the level-d bucket).
// It must be called before UpdatePath for the same access.
func (t *Tree) VerifyPath(leaf uint64, cts [][]byte) error {
	if len(cts) != t.tree.Levels() {
		return fmt.Errorf("integrity: got %d buckets, want %d", len(cts), t.tree.Levels())
	}
	t.verifications++
	l := t.tree.LeafLevel()
	if l == 0 {
		// Degenerate single-bucket tree: the root doubles as the leaf and
		// keeps the interior masking so pristine memory verifies.
		if t.hashNode(t.rootValid, cts[0], Hash{}, Hash{}) != t.rootHash {
			return ErrVerify
		}
		return nil
	}
	// Compute hashes bottom-up. Only reachable buckets contribute real
	// content; below the reachable frontier everything is masked, exactly
	// reproducing the on-chip root for untouched memory.
	h := t.leafHash(cts[l])
	for d := l - 1; d >= 0; d-- {
		flat := t.tree.PathBucket(leaf, d)
		child := t.tree.PathBucket(leaf, d+1)
		sib := t.tree.Sibling(child)
		var flags uint8
		if flat == 0 {
			flags = t.rootValid
		} else {
			flags = t.valid[flat]
		}
		var hl, hr Hash
		if child < sib { // path child is the left child
			hl = h
			hr = t.siblingHash(sib)
		} else {
			hl = t.siblingHash(sib)
			hr = h
		}
		// Mask invalid children (f ∧ h in the paper).
		if flags&1 == 0 {
			hl = Hash{}
		}
		if flags&2 == 0 {
			hr = Hash{}
		}
		h = t.hashNode(flags, cts[d], hl, hr)
	}
	if h != t.rootHash {
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
		t.rootHash = t.hashNode(t.rootValid, newCts[0], Hash{}, Hash{})
		return nil
	}
	// Step 5 of the paper: along the path, the child-valid bit pointing at
	// the next path bucket becomes 1; the other child keeps its old bit
	// only if this bucket was reachable (otherwise its bits are garbage).
	for d := 0; d < l; d++ {
		flat := t.tree.PathBucket(leaf, d)
		child := t.tree.PathBucket(leaf, d+1)
		pathBit := uint8(1) << uint((child-1)%2)
		var old uint8
		if flat == 0 {
			old = t.rootValid
		} else {
			old = t.valid[flat]
		}
		newFlags := pathBit
		if reach[d] {
			newFlags |= old &^ pathBit
		}
		if flat == 0 {
			t.rootValid = newFlags
		} else {
			t.valid[flat] = newFlags
		}
	}
	// Leaf bucket has no children; force its bits clean once written.
	if l > 0 {
		t.valid[t.tree.PathBucket(leaf, l)] = 0
	}
	// Recompute hashes bottom-up and store them (the paper writes back the
	// L non-root hashes; the root hash stays on-chip).
	h := t.leafHash(newCts[l])
	if l > 0 {
		t.storeHash(t.tree.PathBucket(leaf, l), h)
	}
	for d := l - 1; d >= 0; d-- {
		flat := t.tree.PathBucket(leaf, d)
		child := t.tree.PathBucket(leaf, d+1)
		sib := t.tree.Sibling(child)
		var flags uint8
		if flat == 0 {
			flags = t.rootValid
		} else {
			flags = t.valid[flat]
		}
		var hl, hr Hash
		if child < sib {
			hl, hr = h, t.siblingHash(sib)
		} else {
			hl, hr = t.siblingHash(sib), h
		}
		if flags&1 == 0 {
			hl = Hash{}
		}
		if flags&2 == 0 {
			hr = Hash{}
		}
		h = t.hashNode(flags, newCts[d], hl, hr)
		if flat != 0 {
			t.storeHash(flat, h)
		}
	}
	t.rootHash = h
	return nil
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
	hsh := sha256.New()
	var fb [2]byte
	fb[0] = flags & 1
	fb[1] = (flags >> 1) & 1
	hsh.Write(fb[:])
	if flags&3 != 0 {
		hsh.Write(ct)
	} else {
		// (f0 ∨ f1) ∧ B: an unreachable interior node contributes zeros,
		// making the pristine root hash independent of memory contents.
		zero := make([]byte, len(ct))
		hsh.Write(zero)
	}
	hsh.Write(hl[:])
	hsh.Write(hr[:])
	var lenb [8]byte
	binary.LittleEndian.PutUint64(lenb[:], uint64(len(ct)))
	hsh.Write(lenb[:])
	var h Hash
	copy(h[:], hsh.Sum(nil)[:HashSize])
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
