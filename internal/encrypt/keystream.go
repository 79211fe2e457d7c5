package encrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// Pad-space bounds. A pad block's AES input is bucketID[6 B LE] ‖
// counter[8 B LE] ‖ chunk[2 B LE]: a bucket of more than 65536 chunks, or a
// bucket ID of 2^48 or more, would wrap a field and reuse a pad block — a
// two-time pad — so such geometries are refused at construction.
const (
	MaxCounterBuckets     = 1 << 48
	MaxCounterBucketBytes = 1 << 16 * aes.BlockSize
)

// keystream generates the counter scheme's one-time pad and XORs it in.
// With AES-NI it runs keystream_amd64.s, eight pad blocks per group through
// the rounds together; everywhere else it runs the same groups through
// crypto/aes. Both produce the same bytes, and no knob selects between them.
type keystream struct {
	block cipher.Block
	// xk is the expanded AES-128 key the kernel reads (crypto/aes does not
	// expose its own).
	xk [176]byte
	// group is the portable path's scratch. A stack array passed through
	// the cipher.Block interface escapes — a heap allocation per bucket —
	// so the keystream owns it, which makes it single-goroutine like every
	// other per-shard hot-path container.
	group [8 * aes.BlockSize]byte
	// blocks counts the pad blocks generated, the pad work tests pin.
	blocks uint64
}

func newKeystream(key []byte) (*keystream, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("encrypt: key is %d bytes, want %d", len(key), KeySize)
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("encrypt: %w", err)
	}
	k := &keystream{block: b}
	if haveAESNI {
		expandKeyAsm((*[KeySize]byte)(key), &k.xk)
	}
	return k, nil
}

// KeystreamImpl names the pad generator this process runs, so a benchmark
// report can say which one its numbers are for.
func KeystreamImpl() string {
	if haveAESNI {
		return "aesni-8x"
	}
	return "generic"
}

// xor XORs src into dst[:len(src)] with the pad stream
// AES_K(bucketID ‖ ctr ‖ chunk), chunk = 0, 1, ... per 16 bytes. dst may be
// src itself, not a shifted overlap.
func (k *keystream) xor(bucketID, ctr uint64, src, dst []byte) {
	// The counter block as two little-endian quadwords; the chunk index
	// is the top 16 bits of hi.
	lo, hi := bucketID&(MaxCounterBuckets-1)|ctr<<48, ctr>>16
	k.blocks += uint64(len(src)+aes.BlockSize-1) / aes.BlockSize
	if haveAESNI {
		xorKeyStreamAsm(&k.xk, lo, hi, dst[:len(src)], src)
		return
	}
	k.xorGeneric(lo, hi, src, dst)
}

// xorGeneric is the portable path, byte-for-byte the kernel's output. It
// writes a group's counter blocks before encrypting any, which keeps each
// 16-byte AES input load clear of the two 8-byte stores that built it (a
// store-forwarding stall per block otherwise).
func (k *keystream) xorGeneric(lo, hi uint64, src, dst []byte) {
	buf := k.group[:]
	for off := 0; off < len(src); off += len(buf) {
		for b := 0; b < len(buf); b, hi = b+aes.BlockSize, hi+1<<48 {
			binary.LittleEndian.PutUint64(buf[b:], lo)
			binary.LittleEndian.PutUint64(buf[b+8:], hi)
		}
		for b := 0; b < len(buf) && off+b < len(src); b += aes.BlockSize {
			k.block.Encrypt(buf[b:b+aes.BlockSize], buf[b:b+aes.BlockSize])
		}
		subtle.XORBytes(dst[off:], src[off:], buf)
	}
}
