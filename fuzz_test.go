package pathoram

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzOpenSpec drives Open with randomized (bounded) Specs: every input
// must either construct a working client or return an error — never
// panic. Constructed clients then run the canonical workload and must
// honor read-your-writes, Flush idempotence and Close cleanliness
// regardless of which corner of the design space the bytes selected.
// Single-shard inputs, flat and recursive, additionally go to New: both
// constructors run the same resolve pass and the same engine builder, so
// they must agree on accept/reject.

// specSource decodes bounded Spec fields from a fuzz byte stream,
// yielding zeros once the stream runs dry (so short inputs explore the
// defaults).
type specSource struct {
	data []byte
	i    int
}

func (s *specSource) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	v := s.data[s.i]
	s.i++
	return v
}

// skip drops one byte: the stream keeps the slot of a field Spec no longer
// has, so the seed corpus still decodes to the specs it was written for.
func (s *specSource) skip() *specSource {
	s.next()
	return s
}

// specFromBytes maps fuzz bytes onto a Spec. Ranges are deliberately a
// superset of the valid domain: unknown enum values, inert-knob
// combinations and zero sizes must all surface as Open errors.
func specFromBytes(data []byte) Spec {
	s := &specSource{data: data}
	spec := Spec{
		Blocks:    uint64(s.next())%512 + 1,
		BlockSize: int(s.next()) % 65, // 0 explores the default
		Shards:    int(s.next()) % 6,  // 0 explores the default
		Partition: Partition(s.next() % 4),
		Padded:    s.next()%2 == 1,
		PosMap:    PosMapPolicy(s.next() % 3),
		Z:         int(s.next()) % 6,
		// Low stash bounds can overflow — a legitimate runtime error the
		// workload below tolerates, but never a panic.
		StashCapacity:     int(s.next()) % 201,
		ConstantTimeStash: s.next()%2 == 1,
		Encryption:        Encryption(s.next() % 4),
		Integrity:         s.next()%2 == 1,
		AsyncEviction:     s.skip().next()%2 == 1,
		Backend:           Backend(s.next() % 3),
		Rand:              rand.New(rand.NewSource(int64(s.next()) | int64(s.next())<<8)),
	}
	if s.next()%2 == 1 {
		spec.MaxDeferredWriteBacks = int(s.next()) % 9
	}
	if s.next()%2 == 1 {
		s.skip() // EvictionsPerIdle's slot
	}
	if s.next()%2 == 1 {
		// Recursion knobs — valid only with PosMapRecursive; otherwise
		// Open must reject, which is exactly a path worth fuzzing.
		spec.PosBlockSize = int(s.next()) % 65
		spec.OnChipPosMapMax = uint64(s.next()) * 16
		spec.PosZ = int(s.next()) % 6
	}
	if s.next()%2 == 1 {
		// DRAM knobs — valid only with BackendDRAM.
		spec.DRAMChannels = int(s.next()) % 5
		spec.DRAMLayout = DRAMLayout(s.next() % 3)
		spec.DRAMSerialize = s.next()%2 == 1
	}
	if s.next()%2 == 1 {
		// Huge-bucket points: blocks of up to 256 KiB straddle the counter
		// scheme's 1 MiB pad bound (Z >= 4 must be refused, Z <= 3 run
		// thousands of keystream groups per bucket). Few blocks, so the
		// accepted trees stay small.
		spec.BlockSize <<= 12
		spec.Blocks = spec.Blocks%4 + 1
	}
	return spec
}

func FuzzOpenSpec(f *testing.F) {
	// Seed corpus: defaults, a sharded dram point, a recursive point, an
	// async constant-time point, inert-knob rejections, a strawman-
	// encryption padded point, and the counter scheme's pad-space bound.
	f.Add([]byte{})
	f.Add([]byte{63, 16, 1, 0, 0, 0, 4, 100, 0, 1, 0, 8, 0, 0, 7, 7})
	f.Add([]byte{127, 32, 4, 2, 0, 0, 0, 0, 1, 1, 0, 16, 1, 2, 1, 2, 1, 4, 1, 0, 1, 2, 1, 1})
	f.Add([]byte{255, 0, 2, 1, 1, 1, 5, 50, 1, 2, 1, 0, 1, 1, 3, 9, 1, 8, 1, 3})
	f.Add([]byte{10, 8, 0, 3, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 1, 32, 64, 2})
	f.Add([]byte{40, 24, 3, 0, 1, 0, 3, 120, 0, 3, 1, 4, 1, 1, 1, 1, 1, 6, 0, 0, 1, 3, 2, 1})
	// Z=4 x 256 KiB blocks under EncryptCounter: one bucket would wrap the
	// pad's chunk index — refused — and its Z=3 neighbour, which runs.
	f.Add([]byte{3, 64, 1, 0, 0, 0, 4, 200, 0, 0, 0, 0, 0, 0, 7, 7, 0, 0, 0, 0, 1})
	f.Add([]byte{3, 64, 1, 0, 0, 0, 3, 200, 0, 0, 0, 0, 0, 0, 7, 7, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		spec := specFromBytes(data)
		_ = spec.LeakageClass() // total on every spec, valid or not
		if spec.Shards <= 1 {
			bare := spec
			bare.Partition, bare.Padded = PartitionStripe, false
			bare.Rand = nil
			o, errNew := New(bare)
			c, errOpen := Open(bare)
			if (errNew == nil) != (errOpen == nil) {
				t.Fatalf("New and Open disagree: New=%v Open=%v (spec %+v)", errNew, errOpen, bare)
			}
			if errNew == nil {
				o.Close()
				c.Close()
			}
		}
		client, err := Open(spec)
		if err != nil {
			return // invalid specs error; panics are the only failure
		}
		defer client.Close()

		// Canonical workload: read-your-writes over a prefix of the
		// address space. Runtime errors (stash overflow under a tiny
		// fuzzed capacity) abort the workload cleanly; data corruption
		// fails it.
		probe, err := client.Read(0)
		if err != nil {
			return
		}
		bs := len(probe)
		n := spec.Blocks
		if n > 48 {
			n = 48
		}
		payload := func(a uint64) []byte {
			p := make([]byte, bs)
			if bs >= 8 {
				binary.LittleEndian.PutUint64(p, a^0xa5a5a5a5)
			} else {
				for i := range p {
					p[i] = byte(a) ^ 0xa5
				}
			}
			return p
		}
		for a := uint64(0); a < n; a++ {
			if err := client.Write(a, payload(a)); err != nil {
				return
			}
		}
		for a := uint64(0); a < n; a++ {
			got, err := client.Read(a)
			if err != nil {
				return
			}
			if !bytes.Equal(got, payload(a)) {
				t.Fatalf("read-your-writes violated at %d: got %x want %x (spec %+v)", a, got, payload(a), spec)
			}
		}

		// Flush idempotence: the first Flush quiesces; the second must be
		// a no-op on an already-quiescent client, and contents survive.
		if err := client.Flush(); err != nil {
			t.Fatalf("first Flush: %v (spec %+v)", err, spec)
		}
		if p := client.PendingWriteBacks(); p != 0 {
			t.Fatalf("%d write-backs pending after Flush (spec %+v)", p, spec)
		}
		stBefore := client.Stats()
		if err := client.Flush(); err != nil {
			t.Fatalf("second Flush: %v (spec %+v)", err, spec)
		}
		if st := client.Stats(); st != stBefore {
			t.Fatalf("Flush on a quiescent client changed stats: %+v -> %+v (spec %+v)", stBefore, st, spec)
		}
		if got, err := client.Read(0); err != nil || !bytes.Equal(got, payload(0)) {
			t.Fatalf("contents changed across Flush: %x, %v (spec %+v)", got, err, spec)
		}

		// Close cleanliness: Close succeeds, leaves nothing deferred, and
		// a second Close does not panic.
		if err := client.Close(); err != nil {
			t.Fatalf("Close: %v (spec %+v)", err, spec)
		}
		if p := client.PendingWriteBacks(); p != 0 {
			t.Fatalf("%d write-backs pending after Close (spec %+v)", p, spec)
		}
		_ = client.Close()
	})
}
