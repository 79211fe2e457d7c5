package main

import (
	"encoding/binary"
	"math/rand"
)

// Block content is addr ‖ version ‖ fill(addr, version): a block read back
// names the address it belongs to and the write that produced it, so a read
// is checked without a second copy of the payloads.
const headerBytes = 12

func mix(addr uint64, version uint32) uint64 {
	x := addr*0x9E3779B97F4A7C15 ^ (uint64(version)+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	return x ^ x>>29
}

// fillBlock writes the content of (addr, version) into dst, which is at
// least headerBytes long.
func fillBlock(dst []byte, addr uint64, version uint32) {
	binary.LittleEndian.PutUint64(dst, addr)
	binary.LittleEndian.PutUint32(dst[8:], version)
	x := mix(addr, version)
	for i := headerBytes; i < len(dst); i++ {
		dst[i] = byte(x >> (8 * (uint(i) & 7)))
	}
}

// blockVersion returns the version a block carries, and whether the block
// is well-formed content of addr at that version.
func blockVersion(b []byte, addr uint64) (uint32, bool) {
	if len(b) < headerBytes || binary.LittleEndian.Uint64(b) != addr {
		return 0, false
	}
	version := binary.LittleEndian.Uint32(b[8:])
	x := mix(addr, version)
	for i := headerBytes; i < len(b); i++ {
		if b[i] != byte(x>>(8*(uint(i)&7))) {
			return version, false
		}
	}
	return version, true
}

// stream is one client's deterministic op generator. The program under test
// never sees it: it receives only the ops it yields.
type stream struct {
	rng     *rand.Rand
	zipf    *rand.Zipf // nil = uniform
	client  uint64     // index among the writers of this client's tree
	clients uint64     // writers sharing that tree
	shards  uint64
	batch   int
}

// newStream derives client c's generator from the run seed. Zipf ranks are
// used as addresses directly (rank 0 = address 0), as internal/explore does,
// so hot blocks share position-map blocks.
func newStream(seed int64, w *workload, client int) *stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 1))
	writers := w.writersPerTree()
	s := &stream{
		rng: rng, client: uint64(client % writers),
		clients: uint64(writers), shards: uint64(w.shards), batch: w.batch,
	}
	if w.zipf {
		s.zipf = rand.NewZipf(rng, 1.2, 1, benchBlocks-1)
	}
	return s
}

// owner returns the one client allowed to write addr. Under the stripe
// partition addr%shards picks the shard, so ownership rotates on the next
// digit and every client's own addresses cover all shards evenly.
func owner(addr, shards, clients uint64) uint64 {
	return addr / shards % clients
}

// toOwned moves addr to the nearest address of the same shard that client
// owns.
func toOwned(addr, shards, clients, client uint64) uint64 {
	group := shards * clients
	return addr/group*group + client*shards + addr%shards
}

// next fills sub with the client's next submission: one op kind for the
// whole submission, batch addresses, writes redirected to owned addresses.
func (s *stream) next(sub *submission) {
	sub.write = s.rng.Intn(2) == 0
	sub.addrs = sub.addrs[:0]
	for i := 0; i < s.batch; i++ {
		var a uint64
		if s.zipf != nil {
			a = s.zipf.Uint64()
		} else {
			a = s.rng.Uint64() % benchBlocks
		}
		if sub.write && s.clients > 1 {
			a = toOwned(a, s.shards, s.clients, s.client)
			if a >= benchBlocks {
				a -= s.shards * s.clients
			}
		}
		sub.addrs = append(sub.addrs, a)
	}
}
