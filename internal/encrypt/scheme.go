// Package encrypt implements the paper's two randomized bucket-encryption
// schemes (Section 2.2), an identity scheme for plaintext-at-rest trees,
// and the one serializing PathStore: it lays buckets out in the Section 2.2
// format, seals them under a scheme and keeps them in a flat external
// memory, optionally verified by the authentication tree of
// internal/integrity (Section 5).
//
// Layout note: the analytical model in internal/analysis uses the paper's
// bit-exact field widths (L-bit leaves, U-bit addresses). The functional
// store here uses byte-aligned fields — 8-byte address (0 reserved for
// dummies, as in the paper), 4-byte leaf — which only changes constants.
package encrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// KeySize is the AES-128 key size used throughout (the paper's processor
// secret key K).
const KeySize = 16

// Scheme is a randomized encryption over whole buckets. Implementations
// must re-randomize on every Seal so an observer cannot tell whether bucket
// contents changed (Section 2).
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Overhead returns the ciphertext bytes added to a z-slot bucket.
	Overhead(z int) int
	// Seal encrypts plain into out, which must be exactly
	// len(plain)+Overhead(z) bytes. bucketID seeds position binding where
	// the scheme requires it.
	Seal(bucketID uint64, plain []byte, z int, out []byte) error
	// Open decrypts ct into out, which must be exactly
	// len(ct)-Overhead(z) bytes.
	Open(bucketID uint64, ct []byte, z int, out []byte) error
	// SealPath seals one bucket per path level in a single call: ids[d],
	// plain[d] and out[d] describe level d, with the same per-bucket size
	// contract as Seal. A path-granularity call lets the scheme derive its
	// cipher state once per path instead of once per bucket, and is the
	// allocation-free entry point the hot access path uses.
	SealPath(ids []uint64, plain [][]byte, z int, out [][]byte) error
	// OpenPath decrypts one bucket per level: ct[d] into out[d]. A nil
	// out[d] skips level d entirely (the caller already holds that bucket,
	// e.g. in its deferred-write-back overlay); ct[d] is not touched.
	OpenPath(ids []uint64, ct [][]byte, z int, out [][]byte) error
}

// CounterScheme is the counter-based scheme of Section 2.2.2: one 64-bit
// per-bucket counter stored in the clear; the bucket plaintext is XORed
// with the one-time pad AES_K(BucketID || BucketCounter || chunk). Because
// buckets are read and written atomically, a (BucketID, counter) pair is
// never reused, and seeding with BucketID keeps pads of distinct buckets
// distinct. Overhead: 8 bytes per bucket (vs. 16 per block for the
// strawman — the paper's 2Z reduction).
type CounterScheme struct {
	ks       *keystream
	counters []uint64

	// warm keeps OpenPath's counter load pass, so the compiler cannot
	// drop the loads (a field, so shards on different cores do not share
	// a sink line).
	warm uint64
}

// NewCounterScheme builds the scheme for a tree of numBuckets buckets under
// the 16-byte processor key. Counters start at zero but, per the paper,
// need no particular initial value — only that no (bucket, counter) pair is
// sealed twice, which is why NewStore continues them from a backing that
// already holds sealed buckets.
func NewCounterScheme(key []byte, numBuckets uint64) (*CounterScheme, error) {
	if numBuckets > MaxCounterBuckets {
		return nil, fmt.Errorf("encrypt: %d buckets exceed the counter scheme's 2^48 bucket IDs", numBuckets)
	}
	ks, err := newKeystream(key)
	if err != nil {
		return nil, err
	}
	return &CounterScheme{ks: ks, counters: make([]uint64, numBuckets)}, nil
}

// Name implements Scheme.
func (s *CounterScheme) Name() string { return "counter" }

// Overhead implements Scheme.
func (s *CounterScheme) Overhead(int) int { return 8 }

// Counter returns the current counter of a bucket (for tests and the
// Section 2.2.2 non-rollover discussion).
func (s *CounterScheme) Counter(bucketID uint64) uint64 { return s.counters[bucketID] }

// Seal implements Scheme.
func (s *CounterScheme) Seal(bucketID uint64, plain []byte, z int, out []byte) error {
	if len(out) != len(plain)+8 {
		return fmt.Errorf("encrypt: seal buffer %d want %d", len(out), len(plain)+8)
	}
	if err := s.checkBucket(bucketID, len(plain)); err != nil {
		return err
	}
	if s.counters[bucketID] == math.MaxUint64 {
		return fmt.Errorf("encrypt: bucket %d's counter would wrap and reuse a pad", bucketID)
	}
	s.counters[bucketID]++
	ctr := s.counters[bucketID]
	binary.LittleEndian.PutUint64(out[:8], ctr)
	s.ks.xor(bucketID, ctr, plain, out[8:])
	return nil
}

// Open implements Scheme.
func (s *CounterScheme) Open(bucketID uint64, ct []byte, z int, out []byte) error {
	if len(ct) < 8 || len(out) != len(ct)-8 {
		return fmt.Errorf("encrypt: open buffer %d for ct %d", len(out), len(ct))
	}
	if err := s.checkBucket(bucketID, len(out)); err != nil {
		return err
	}
	ctr := binary.LittleEndian.Uint64(ct[:8])
	s.ks.xor(bucketID, ctr, ct[8:], out)
	return nil
}

// checkBucket fails closed on anything that would leave the pad space: a
// bucket outside the counter table, or a plaintext long enough to wrap the
// 16-bit chunk index and reuse a pad block.
func (s *CounterScheme) checkBucket(bucketID uint64, plainBytes int) error {
	if bucketID >= uint64(len(s.counters)) {
		return fmt.Errorf("encrypt: bucket %d out of range", bucketID)
	}
	if plainBytes > MaxCounterBucketBytes {
		return fmt.Errorf("encrypt: %d-byte bucket exceeds the counter scheme's %d pad bytes per counter", plainBytes, MaxCounterBucketBytes)
	}
	return nil
}

// SealPath implements Scheme: one Seal per level, through the concrete
// receiver (no per-bucket interface dispatch). The AES key schedule is
// shared across the whole tree — it lives in s.ks — and the keystream
// kernel runs once per bucket, so the call allocates nothing.
func (s *CounterScheme) SealPath(ids []uint64, plain [][]byte, z int, out [][]byte) error {
	if len(plain) != len(ids) || len(out) != len(ids) {
		return fmt.Errorf("encrypt: seal path of %d ids, %d plain, %d out", len(ids), len(plain), len(out))
	}
	for d := range ids {
		if err := s.Seal(ids[d], plain[d], z, out[d]); err != nil {
			return err
		}
	}
	return nil
}

// OpenPath implements Scheme; out[d] == nil skips level d. Before it
// opens any level it loads the counter of every bucket on the path,
// skipped levels included: the SealPath that writes the path back seals
// all of them, and its counter loads then hit in cache.
func (s *CounterScheme) OpenPath(ids []uint64, ct [][]byte, z int, out [][]byte) error {
	if len(ct) != len(ids) || len(out) != len(ids) {
		return fmt.Errorf("encrypt: open path of %d ids, %d ct, %d out", len(ids), len(ct), len(out))
	}
	var sum uint64
	for _, id := range ids {
		if id < uint64(len(s.counters)) {
			sum += s.counters[id]
		}
	}
	s.warm = sum
	for d := range ids {
		if out[d] == nil {
			continue
		}
		if err := s.Open(ids[d], ct[d], z, out[d]); err != nil {
			return err
		}
	}
	return nil
}

// StrawmanScheme is the per-block random-key scheme of Section 2.2.1: each
// block gets a fresh random key K', stored as AES_K(K'), and the block
// plaintext is XORed with the pad AES_K'(i). Overhead: 16 bytes per block.
type StrawmanScheme struct {
	block cipher.Block
	rand  io.Reader
}

// NewStrawmanScheme builds the scheme under the processor key; random reads
// per-block keys from rand (crypto/rand in production, a seeded generator
// in tests).
func NewStrawmanScheme(key []byte, rand io.Reader) (*StrawmanScheme, error) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("encrypt: %w", err)
	}
	if rand == nil {
		return nil, fmt.Errorf("encrypt: strawman scheme needs a randomness source")
	}
	return &StrawmanScheme{block: b, rand: rand}, nil
}

// Name implements Scheme.
func (s *StrawmanScheme) Name() string { return "strawman" }

// Overhead implements Scheme.
func (s *StrawmanScheme) Overhead(z int) int { return 16 * z }

// Seal implements Scheme. The bucket plaintext is split into z equal slots,
// each encrypted independently (the strawman has no bucket-level state, so
// bucketID is unused).
func (s *StrawmanScheme) Seal(_ uint64, plain []byte, z int, out []byte) error {
	if z < 1 || len(plain)%z != 0 {
		return fmt.Errorf("encrypt: plaintext %dB not divisible into %d slots", len(plain), z)
	}
	if len(out) != len(plain)+16*z {
		return fmt.Errorf("encrypt: seal buffer %d want %d", len(out), len(plain)+16*z)
	}
	slot := len(plain) / z
	for i := 0; i < z; i++ {
		var kPrime [16]byte
		if _, err := io.ReadFull(s.rand, kPrime[:]); err != nil {
			return fmt.Errorf("encrypt: drawing block key: %w", err)
		}
		dst := out[i*(16+slot):]
		s.block.Encrypt(dst[:16], kPrime[:]) // AES_K(K'), invertible for decryption
		blk, err := aes.NewCipher(kPrime[:])
		if err != nil {
			return err
		}
		otp(blk, plain[i*slot:(i+1)*slot], dst[16:16+slot])
	}
	return nil
}

// Open implements Scheme.
func (s *StrawmanScheme) Open(_ uint64, ct []byte, z int, out []byte) error {
	if z < 1 || len(ct)%z != 0 {
		return fmt.Errorf("encrypt: ciphertext %dB not divisible into %d slots", len(ct), z)
	}
	slot := len(ct)/z - 16
	if slot < 0 || len(out) != len(ct)-16*z {
		return fmt.Errorf("encrypt: open buffer %d for ct %d", len(out), len(ct))
	}
	for i := 0; i < z; i++ {
		src := ct[i*(16+slot):]
		var kPrime [16]byte
		s.block.Decrypt(kPrime[:], src[:16])
		blk, err := aes.NewCipher(kPrime[:])
		if err != nil {
			return err
		}
		otp(blk, src[16:16+slot], out[i*slot:(i+1)*slot])
	}
	return nil
}

// SealPath implements Scheme by looping Seal. The strawman re-derives a
// fresh per-block key schedule on every slot by construction (that is the
// scheme), so a path-granularity call cannot amortize anything; it exists
// for interface completeness and is excluded from the zero-allocation
// target.
func (s *StrawmanScheme) SealPath(ids []uint64, plain [][]byte, z int, out [][]byte) error {
	return sealEach(s, ids, plain, z, out)
}

// OpenPath implements Scheme by looping Open; out[d] == nil skips level d.
func (s *StrawmanScheme) OpenPath(ids []uint64, ct [][]byte, z int, out [][]byte) error {
	return openEach(s, ids, ct, z, out)
}

// PlainScheme is the identity scheme of plaintext-at-rest trees
// (EncryptNone on a tree file): no overhead, and Seal and Open are copies,
// so an unencrypted tree that must be serialized goes through the same
// Store — and lands in the same bucket format — as an encrypted one.
type PlainScheme struct{}

// Name implements Scheme.
func (PlainScheme) Name() string { return "none" }

// Overhead implements Scheme.
func (PlainScheme) Overhead(int) int { return 0 }

// Seal implements Scheme: out is a copy of plain.
func (PlainScheme) Seal(_ uint64, plain []byte, _ int, out []byte) error {
	if len(out) != len(plain) {
		return fmt.Errorf("encrypt: seal buffer %d want %d", len(out), len(plain))
	}
	copy(out, plain)
	return nil
}

// Open implements Scheme: out is a copy of ct.
func (PlainScheme) Open(_ uint64, ct []byte, _ int, out []byte) error {
	if len(out) != len(ct) {
		return fmt.Errorf("encrypt: open buffer %d for ct %d", len(out), len(ct))
	}
	copy(out, ct)
	return nil
}

// SealPath implements Scheme by looping Seal.
func (s PlainScheme) SealPath(ids []uint64, plain [][]byte, z int, out [][]byte) error {
	return sealEach(s, ids, plain, z, out)
}

// OpenPath implements Scheme by looping Open; out[d] == nil skips level d.
func (s PlainScheme) OpenPath(ids []uint64, ct [][]byte, z int, out [][]byte) error {
	return openEach(s, ids, ct, z, out)
}

// sealEach is SealPath as one Seal per level.
func sealEach(s Scheme, ids []uint64, plain [][]byte, z int, out [][]byte) error {
	if len(plain) != len(ids) || len(out) != len(ids) {
		return fmt.Errorf("encrypt: seal path of %d ids, %d plain, %d out", len(ids), len(plain), len(out))
	}
	for d := range ids {
		if err := s.Seal(ids[d], plain[d], z, out[d]); err != nil {
			return err
		}
	}
	return nil
}

// openEach is OpenPath as one Open per level; out[d] == nil skips level d.
func openEach(s Scheme, ids []uint64, ct [][]byte, z int, out [][]byte) error {
	if len(ct) != len(ids) || len(out) != len(ids) {
		return fmt.Errorf("encrypt: open path of %d ids, %d ct, %d out", len(ids), len(ct), len(out))
	}
	for d := range ids {
		if out[d] == nil {
			continue
		}
		if err := s.Open(ids[d], ct[d], z, out[d]); err != nil {
			return err
		}
	}
	return nil
}

// otp XORs src with the pad AES_k(i) into dst.
func otp(blk cipher.Block, src, dst []byte) {
	var seed, pad [aes.BlockSize]byte
	for off, i := 0, uint64(0); off < len(src); off, i = off+aes.BlockSize, i+1 {
		binary.LittleEndian.PutUint64(seed[:8], i)
		blk.Encrypt(pad[:], seed[:])
		n := len(src) - off
		if n > aes.BlockSize {
			n = aes.BlockSize
		}
		for j := 0; j < n; j++ {
			dst[off+j] = src[off+j] ^ pad[j]
		}
	}
}
