package pathoram

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/treemath"
)

// TestFileReopenResumesCounters: a tree file reopened under the same key
// continues every bucket's encryption counter from its stored header. A
// bucket sealed after the reopen must carry a counter above the one it
// held before; an equal or lower one reuses an earlier seal's one-time pad
// AES_K(BucketID‖counter‖chunk).
func TestFileReopenResumesCounters(t *testing.T) {
	for _, wal := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", wal), func(t *testing.T) {
			dir := t.TempDir()
			var leaves []uint64
			session := func() {
				t.Helper()
				o, err := New(Spec{Blocks: 64, BlockSize: 16, Key: goldenKey, Backend: BackendFile, Dir: dir, WAL: wal,
					OnPathAccess: func(_, _ int, leaf uint64) { leaves = append(leaves, leaf) }})
				if err != nil {
					t.Fatal(err)
				}
				if err := o.Write(1, make([]byte, 16)); err != nil {
					t.Fatal(err)
				}
				if err := o.Close(); err != nil {
					t.Fatal(err)
				}
			}
			session()
			before := storedCounters(t, filepath.Join(dir, "oram.tree"))
			leaves = nil
			session()
			after := storedCounters(t, filepath.Join(dir, "oram.tree"))
			tree := treemath.New(bits.TrailingZeros64(uint64(len(after))+1) - 1) // 2^(L+1)-1 buckets
			if len(leaves) == 0 {
				t.Fatal("the second session accessed no path")
			}
			for _, leaf := range leaves {
				for d := 0; d < tree.Levels(); d++ {
					b := tree.PathBucket(leaf, d)
					if after[b] <= before[b] {
						t.Errorf("bucket %d resealed with counter %d after holding %d: a pad is reused", b, after[b], before[b])
					}
				}
			}
		})
	}
}

// storedCounters reads the counter header of every bucket record in a
// closed tree file.
func storedCounters(t *testing.T, path string) []uint64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stride, n := int(binary.LittleEndian.Uint32(raw[12:16])), binary.LittleEndian.Uint64(raw[16:24])
	records := raw[len(raw)-int(n)*stride:]
	out := make([]uint64, n)
	for b := range out {
		out[b] = binary.LittleEndian.Uint64(records[b*stride:])
	}
	return out
}
