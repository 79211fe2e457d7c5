package encrypt

import (
	"bytes"
	"crypto/aes"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// The tests in this file run under the default tags and under -tags purego
// (CI does both): the kernel-only ones skip where there is no kernel, the
// differential ones hold whatever keystream.xor dispatches to, and the
// portable loop explicitly, to the same reference bytes.

func needKernel(t *testing.T) {
	t.Helper()
	if !haveAESNI {
		t.Skipf("no AES-NI keystream kernel in this build/host (impl %q)", KeystreamImpl())
	}
}

// TestKeyExpansionFIPS197 pins the kernel's key schedule to the AES-128
// expansion example of FIPS-197 Appendix A.1.
func TestKeyExpansionFIPS197(t *testing.T) {
	needKernel(t)
	key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	const want = "2b7e151628aed2a6abf7158809cf4f3ca0fafe1788542cb123a339392a6c7605" +
		"f2c295f27a96b9435935807a7359f67f3d80477d4716fe3e1e237e446d7a883b" +
		"ef44a541a8525b7fb671253bdb0bad00d4d1c6f87c839d87caf2b8bc11f915bc" +
		"6d88a37a110b3efddbf98641ca0093fd4e54f70e5f5fc9f384a64fb24ea6dc4f" +
		"ead27321b58dbad2312bf5607f8d292fac7766f319fadc2128d12941575c006e" +
		"d014f9a8c9ee2589e13f0cc8b6630ca6"
	ks, err := newKeystream(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(ks.xk[:]); got != want {
		t.Errorf("expanded key\n got %s\nwant %s", got, want)
	}
}

// TestKernelMatchesCryptoAES encrypts single blocks with the kernel (pad
// XOR zero = AES_K(block)) and with crypto/aes under random keys.
func TestKernelMatchesCryptoAES(t *testing.T) {
	needKernel(t)
	rng := rand.New(rand.NewSource(197))
	key, in, want, got := make([]byte, KeySize), make([]byte, 16), make([]byte, 16), make([]byte, 16)
	for i := 0; i < 500; i++ {
		rng.Read(key)
		rng.Read(in)
		ks, err := newKeystream(key)
		if err != nil {
			t.Fatal(err)
		}
		ks.block.Encrypt(want, in)
		xorKeyStreamAsm(&ks.xk, binary.LittleEndian.Uint64(in), binary.LittleEndian.Uint64(in[8:]), got, make([]byte, 16))
		if !bytes.Equal(got, want) {
			t.Fatalf("key %x block %x: kernel %x, crypto/aes %x", key, in, got, want)
		}
	}
}

func TestNewKeystreamRejectsOtherKeySizes(t *testing.T) {
	for _, n := range []int{0, 15, 24, 32} {
		if _, err := newKeystream(make([]byte, n)); err == nil {
			t.Errorf("%d-byte key accepted; the kernel is AES-128 only", n)
		}
	}
}

// checkKeystream compares the dispatched path and the portable loop with
// the reference on one case. src and dst sit at the given offsets inside
// larger buffers (unaligned operands, and guard bytes on both sides that
// must survive); inPlace makes dst alias src exactly.
func checkKeystream(t *testing.T, key []byte, bucketID, ctr uint64, n, srcOff, dstOff int, inPlace bool) {
	t.Helper()
	ks, err := newKeystream(key)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)<<16 ^ int64(ctr)))
	src := make([]byte, n)
	rng.Read(src)
	want := make([]byte, n)
	newRefKeystream(key).xorPad(bucketID, ctr, src, want)

	lo, hi := bucketID|ctr<<48, ctr>>16
	for name, xor := range map[string]func(src, dst []byte){
		KeystreamImpl():    func(src, dst []byte) { ks.xor(bucketID, ctr, src, dst) },
		"generic (direct)": func(src, dst []byte) { ks.xorGeneric(lo, hi, src, dst) },
	} {
		const guard = 0xa5
		sbuf := bytes.Repeat([]byte{guard}, srcOff+n+17)
		s := sbuf[srcOff : srcOff+n]
		copy(s, src)
		dbuf, d := sbuf, s
		if !inPlace {
			dbuf = bytes.Repeat([]byte{guard}, dstOff+n+17)
			d = dbuf[dstOff : dstOff+n]
		}
		xor(s, d)
		if !bytes.Equal(d, want) {
			t.Fatalf("%s: bucket %#x ctr %#x len %d src+%d dst+%d inPlace=%v: output differs from reference",
				name, bucketID, ctr, n, srcOff, dstOff, inPlace)
		}
		if !inPlace && !bytes.Equal(s, src) {
			t.Fatalf("%s: len %d: src modified", name, n)
		}
		off := dstOff
		if inPlace {
			off = srcOff
		}
		for i, b := range dbuf {
			if (i < off || i >= off+n) && b != guard {
				t.Fatalf("%s: len %d: wrote outside dst at %d", name, n, i-off)
			}
		}
	}
}

var (
	cornerBuckets  = []uint64{0, 1, 0x0123456789ab, 1<<48 - 1}
	cornerCounters = []uint64{0, 1, 1 << 16, 1<<48 - 1, 1 << 48, ^uint64(0)}
)

// TestKeystreamMatchesReference sweeps every length 0–4096 (so every
// residue mod 16 and mod 128, up to 33 kernel groups) across corner
// bucket IDs and counters, unaligned offsets and exact in-place aliasing.
func TestKeystreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	key := make([]byte, KeySize)
	for n := 0; n <= 4096; n++ {
		if n%64 == 0 {
			rng.Read(key)
		}
		bucketID, ctr := cornerBuckets[n%len(cornerBuckets)], cornerCounters[n%len(cornerCounters)]
		if n%5 == 0 {
			bucketID, ctr = rng.Uint64()>>16, rng.Uint64()
		}
		checkKeystream(t, key, bucketID, ctr, n, n%16, (n/16)%16, n%3 == 0)
	}
}

func FuzzKeystream(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint64(0), uint64(0), uint16(0), uint8(0), uint8(0), false)
	f.Add([]byte("0123456789abcdef"), uint64(0x0123456789ab), uint64(1), uint16(228), uint8(0), uint8(0), false)
	f.Add([]byte{}, uint64(1<<48-1), ^uint64(0), uint16(4096), uint8(3), uint8(9), false)
	f.Add([]byte{0xff}, uint64(7), uint64(1<<48), uint16(127), uint8(1), uint8(1), true)
	f.Add([]byte("fedcba9876543210"), uint64(30), uint64(1<<16), uint16(129), uint8(15), uint8(0), true)
	f.Add([]byte("k"), uint64(2), uint64(3), uint16(15), uint8(8), uint8(7), false)
	f.Fuzz(func(t *testing.T, keySeed []byte, bucketID, ctr uint64, n uint16, srcOff, dstOff uint8, inPlace bool) {
		key := make([]byte, KeySize)
		copy(key, keySeed)
		checkKeystream(t, key, bucketID&(MaxCounterBuckets-1), ctr, int(n)%4097, int(srcOff)%16, int(dstOff)%16, inPlace)
	})
}

// TestCounterPadSpaceBounds: the largest geometry whose chunk index still
// fits 16 bits works, down to the pad of its last chunk (8192 kernel
// groups); one byte more, or one bucket past 2^48, is refused.
func TestCounterPadSpaceBounds(t *testing.T) {
	if _, err := NewCounterScheme(testKey, MaxCounterBuckets+1); err == nil {
		t.Error("2^48+1 buckets accepted: bucket IDs would truncate")
	}
	scheme, err := NewCounterScheme(testKey, 3)
	if err != nil {
		t.Fatal(err)
	}
	const z, maxBlock = 4, MaxCounterBucketBytes/4 - slotHeaderBytes
	if _, err := NewStore(StoreConfig{LeafLevel: 1, Z: z, BlockBytes: maxBlock + 1, Scheme: scheme}); err == nil {
		t.Error("bucket of 65536 chunks + 4 bytes accepted: the chunk index would wrap")
	}
	if _, err := NewStore(StoreConfig{LeafLevel: 1, Z: z, BlockBytes: maxBlock, Scheme: scheme}); err != nil {
		t.Fatalf("bucket of exactly 65536 chunks refused: %v", err)
	}

	plain := make([]byte, MaxCounterBucketBytes)
	rand.New(rand.NewSource(48)).Read(plain)
	ct := make([]byte, len(plain)+8)
	if err := scheme.Seal(2, plain, z, ct); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(plain))
	newRefKeystream(testKey).xorPad(2, 1, plain, want)
	if !bytes.Equal(ct[8:], want) {
		t.Error("65536-chunk bucket: ciphertext differs from reference")
	}
	pad := func(off int) []byte {
		p := make([]byte, aes.BlockSize)
		subtle.XORBytes(p, ct[8+off:], plain[off:off+aes.BlockSize])
		return p
	}
	if bytes.Equal(pad(0), pad(len(plain)-aes.BlockSize)) {
		t.Error("chunk 65535 reuses chunk 0's pad")
	}
	got := make([]byte, len(plain))
	if err := scheme.Open(2, ct, z, got); err != nil || !bytes.Equal(got, plain) {
		t.Errorf("65536-chunk bucket does not round-trip (err %v)", err)
	}

	over := make([]byte, MaxCounterBucketBytes+1)
	if err := scheme.Seal(2, over, z, make([]byte, len(over)+8)); err == nil {
		t.Error("Seal of 65536 chunks + 1 byte accepted")
	}
	if err := scheme.Open(2, make([]byte, len(over)+8), z, over); err == nil {
		t.Error("Open of 65536 chunks + 1 byte accepted")
	}
	if scheme.Counter(2) != 1 {
		t.Errorf("refused Seal advanced the counter to %d", scheme.Counter(2))
	}
}

// benchPath is the benchmark's flat-enc shard geometry: 15 levels of
// 228-byte plaintext buckets (Z=3, 64-byte blocks).
func benchPath(b *testing.B) (s *CounterScheme, ids []uint64, plain, ct [][]byte) {
	const levels, pbytes = 15, 228
	s, err := NewCounterScheme(testKey, 1<<levels-1)
	if err != nil {
		b.Fatal(err)
	}
	ids, plain, ct = make([]uint64, levels), make([][]byte, levels), make([][]byte, levels)
	for d := range ids {
		ids[d] = uint64(1)<<d - 1
		plain[d], ct[d] = make([]byte, pbytes), make([]byte, pbytes+8)
	}
	b.SetBytes(levels * pbytes)
	b.ReportAllocs()
	return s, ids, plain, ct
}

func BenchmarkCounterSealPath(b *testing.B) {
	s, ids, plain, ct := benchPath(b)
	for b.Loop() {
		if err := s.SealPath(ids, plain, 3, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCounterOpenPath(b *testing.B) {
	s, ids, plain, ct := benchPath(b)
	if err := s.SealPath(ids, plain, 3, ct); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if err := s.OpenPath(ids, ct, 3, plain); err != nil {
			b.Fatal(err)
		}
	}
}
