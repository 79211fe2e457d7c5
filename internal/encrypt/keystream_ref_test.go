package encrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// refKeystream is the pad generator as it stood before the keystream
// kernel: xorPad below is that commit's CounterScheme.xorPad verbatim
// (only the receiver type changed). It is the test-only reference the
// kernel and the portable path are both held to, byte for byte.
type refKeystream struct {
	block     cipher.Block
	seed, pad [aes.BlockSize]byte
}

func newRefKeystream(key []byte) *refKeystream {
	b, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	return &refKeystream{block: b}
}

// xorPad XORs src with the OTP stream AES_K(bucketID || ctr || i) into dst.
func (s *refKeystream) xorPad(bucketID, ctr uint64, src, dst []byte) {
	seed, pad := s.seed[:], s.pad[:]
	// 6 bytes of bucket ID (trees are capped well below 2^48 buckets),
	// 8 bytes of counter, 2 bytes of chunk index.
	seed[0] = byte(bucketID)
	seed[1] = byte(bucketID >> 8)
	seed[2] = byte(bucketID >> 16)
	seed[3] = byte(bucketID >> 24)
	seed[4] = byte(bucketID >> 32)
	seed[5] = byte(bucketID >> 40)
	binary.LittleEndian.PutUint64(seed[6:14], ctr)
	// Full blocks XOR 8 bytes at a time; the pad byte stream is identical
	// to a per-byte XOR, only the grouping changes.
	off, i := 0, uint16(0)
	for ; off+aes.BlockSize <= len(src); off, i = off+aes.BlockSize, i+1 {
		binary.LittleEndian.PutUint16(seed[14:16], i)
		s.block.Encrypt(pad[:], seed[:])
		lo := binary.LittleEndian.Uint64(src[off:]) ^ binary.LittleEndian.Uint64(pad[:8])
		hi := binary.LittleEndian.Uint64(src[off+8:]) ^ binary.LittleEndian.Uint64(pad[8:])
		binary.LittleEndian.PutUint64(dst[off:], lo)
		binary.LittleEndian.PutUint64(dst[off+8:], hi)
	}
	if off < len(src) {
		binary.LittleEndian.PutUint16(seed[14:16], i)
		s.block.Encrypt(pad[:], seed[:])
		for j := 0; off+j < len(src); j++ {
			dst[off+j] = src[off+j] ^ pad[j]
		}
	}
}
