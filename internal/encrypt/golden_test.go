package encrypt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// Constants recorded at the commit before the AES-NI keystream kernel
// existed (per-block cipher.Block loop). "Bit-identical ciphertext" across
// that change means exactly these values.
const (
	goldenTreeSHA256     = "011e18a8077608b27308b6220bef761a1cb24e13ddf847fc5f91b83f1882c4f5"
	goldenCountersSHA256 = "72072beb4b261628abce0a986839a0697c3d5658bd690f49b9268489d146ee93"
	// Seal(bucketID 0x0123456789ab, plain = 0..227) under testKey at
	// counter 1: 8-byte counter, then 228 bytes of plain XOR pad.
	goldenSealVector = "01000000000000001d67c4dbddac6f607b61f562457788831b166ab6e4defe0810ff0894544990d54de499610250033fa13a66445154a28b782ecb78628d973da0b05f8516814f1cc6141116ab771a613fc9ab3a03cd9d000c905ff6c9446d48fec3346dc7a49c5a2d81acf6a61432a78f1ab875cc82c8fdbe932b3f63def020f0a24fab4b3803910e74899f6f1951f27ad07b497a5068a50e808ce15da456e38e1f17c6fb1fd1dbe4777d830be2b45327c77c2a5c611fac160da55bd63ede588fba2ad99d4e1d4b8d251a78ec875021e1ea98569893d71562b7e1d484cc2a46bb31227adbd2d7a69302bcf9"
)

// TestCounterCiphertextGolden replays a fixed stream of path reads and
// write-backs with deterministic slots through a counter-encrypted store
// and pins every ciphertext bucket and every counter to constants
// recorded at an earlier commit. The round-trip tests cannot see a pad
// change that Seal and Open share; this one does.
func TestCounterCiphertextGolden(t *testing.T) {
	const leafLevel, z, blockBytes = 4, 4, 45 // 228 B plaintext buckets: 14 full chunks + 4 B
	scheme, err := NewCounterScheme(testKey, 31)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(StoreConfig{LeafLevel: leafLevel, Z: z, BlockBytes: blockBytes, Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20130623))
	buckets := make([][]core.Slot, leafLevel+1)
	for op := 0; op < 200; op++ {
		leaf := uint64(rng.Intn(1 << leafLevel))
		if _, err := store.ReadPath(leaf, nil, nil); err != nil {
			t.Fatal(err)
		}
		for d := range buckets {
			buckets[d] = buckets[d][:0]
			for i, n := 0, rng.Intn(z+1); i < n; i++ {
				data := make([]byte, blockBytes)
				rng.Read(data)
				buckets[d] = append(buckets[d], core.Slot{Addr: rng.Uint64() >> 1, Leaf: uint32(leaf), Data: data})
			}
		}
		if err := store.WritePath(leaf, buckets); err != nil {
			t.Fatal(err)
		}
	}

	tree, ctrs := sha256.New(), sha256.New()
	rec := make([][]byte, 1)
	for flat := uint64(0); flat < store.Backing().NumBuckets(); flat++ {
		if err := store.Backing().ReadBuckets([]uint64{flat}, rec); err != nil {
			t.Fatal(err)
		}
		tree.Write(rec[0])
		var c [8]byte
		binary.LittleEndian.PutUint64(c[:], scheme.Counter(flat))
		ctrs.Write(c[:])
	}
	if got := hex.EncodeToString(tree.Sum(nil)); got != goldenTreeSHA256 {
		t.Errorf("tree ciphertext SHA-256 = %s, want %s", got, goldenTreeSHA256)
	}
	if got := hex.EncodeToString(ctrs.Sum(nil)); got != goldenCountersSHA256 {
		t.Errorf("counter table SHA-256 = %s, want %s", got, goldenCountersSHA256)
	}

	// Scheme-level vector through the keystream entry point itself: a
	// counter table reaching bucket 0x0123456789ab cannot be allocated, so
	// this is Seal minus the table lookup.
	plain := make([]byte, 228)
	for i := range plain {
		plain[i] = byte(i)
	}
	out := make([]byte, 8+len(plain))
	binary.LittleEndian.PutUint64(out[:8], 1)
	scheme.ks.xor(0x0123456789ab, 1, plain, out[8:])
	if got := hex.EncodeToString(out); got != goldenSealVector {
		t.Errorf("seal vector = %s, want %s", got, goldenSealVector)
	}
}
