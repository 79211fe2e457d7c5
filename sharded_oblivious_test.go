package pathoram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

// Adversary-view tests for the oblivious routing modes (PartitionRandom,
// Spec.Padded). The adversary observes, per shard, every path
// access (OnShardPathAccess) — real, padding and background-eviction
// accesses are indistinguishable on the wire, so the observable is the
// per-shard access schedule. SECURITY.md states the properties these tests
// pin down.

// adversarialPatterns are address patterns chosen to maximally skew naive
// routing: hammering one address, hammering a different one (a pair that
// must be indistinguishable), sequential scans over different windows,
// shard-aligned strides, and a spread-out pseudo-random set.
func adversarialPatterns(k int, blocks uint64) map[string][]uint64 {
	pat := func(f func(i int) uint64) []uint64 {
		out := make([]uint64, k)
		for i := range out {
			out[i] = f(i) % blocks
		}
		return out
	}
	rng := rand.New(rand.NewSource(555))
	return map[string][]uint64{
		"hammer-7":    pat(func(int) uint64 { return 7 }),
		"hammer-401":  pat(func(int) uint64 { return 401 }),
		"scan-low":    pat(func(i int) uint64 { return uint64(i) }),
		"scan-high":   pat(func(i int) uint64 { return uint64(100 + i) }),
		"stride-4":    pat(func(i int) uint64 { return uint64(i * 4) }),
		"pseudo-rand": pat(func(int) uint64 { return rng.Uint64() }),
	}
}

// paddedRandomCounts runs one batch (a WriteBatch when write is true, else
// a ReadBatch) of the given addresses against a fresh padded
// PartitionRandom store seeded identically every time, and returns the
// per-shard access counts the adversary would observe.
func paddedRandomCounts(t *testing.T, shards int, blocks uint64, addrs []uint64, write bool) []uint64 {
	t.Helper()
	counts := make([]uint64, shards)
	s, err := NewSharded(Spec{
		Shards:    shards,
		Partition: PartitionRandom,
		Padded:    true,
		Blocks:    blocks, BlockSize: 16,
		// Generous stash: background eviction must never fire, so the
		// observed counts are exactly the batch schedule.
		StashCapacity: 400,
		Rand:          rand.New(rand.NewSource(31337)),
		OnPathAccess:  func(sh, _ int, _ uint64) { counts[sh]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if write {
		data := make([][]byte, len(addrs))
		for i := range data {
			data[i] = make([]byte, 16)
			binary.LittleEndian.PutUint64(data[i], uint64(i))
		}
		if err := s.WriteBatch(addrs, data); err != nil {
			t.Fatal(err)
		}
	} else if _, err := s.ReadBatch(addrs); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PaddingAccesses == 0 {
		t.Fatalf("padded batch issued no padding accesses (stats: %+v)", st)
	}
	return counts
}

// TestPaddedRandomScheduleInputIndependent is the acceptance test for the
// oblivious routing modes: under PartitionRandom with Padded batches, the
// per-shard access schedule of a batch is a function of the router's
// internal coins alone. Replaying adversarially different address patterns
// of the same batch size against the same seed must produce *identical*
// per-shard access counts — and within every batch, all shards must be
// touched equally often (the schedule is flat, so no shard stands out).
func TestPaddedRandomScheduleInputIndependent(t *testing.T) {
	const shards = 4
	const blocks = 512
	const k = 64
	for _, write := range []bool{false, true} {
		name := "read-batch"
		if write {
			name = "write-batch"
		}
		t.Run(name, func(t *testing.T) {
			var refName string
			var ref []uint64
			for pname, addrs := range adversarialPatterns(k, blocks) {
				counts := paddedRandomCounts(t, shards, blocks, addrs, write)
				for sh := 1; sh < shards; sh++ {
					if counts[sh] != counts[0] {
						t.Fatalf("%s: schedule not flat: per-shard counts %v", pname, counts)
					}
				}
				// Two phases (fetch + relocate), each at least
				// ceil(k/shards) slots on every shard.
				if min := uint64(2 * k / shards); counts[0] < min {
					t.Fatalf("%s: shard counts %v below the fixed shape minimum %d", pname, counts, min)
				}
				if ref == nil {
					refName, ref = pname, counts
					continue
				}
				if fmt.Sprint(counts) != fmt.Sprint(ref) {
					t.Errorf("adversary distinguishes %q from %q: per-shard counts %v vs %v",
						pname, refName, counts, ref)
				}
			}
		})
	}
}

// TestPaddedBatchesStayFlatAcrossBatches checks the always-true guarantee
// for multi-batch traffic: within every padded batch — whatever came
// before it — each shard is touched exactly as often as every other.
func TestPaddedBatchesStayFlatAcrossBatches(t *testing.T) {
	const shards = 4
	const blocks = 256
	counts := make([]uint64, shards)
	s, err := NewSharded(Spec{
		Shards:    shards,
		Partition: PartitionRandom,
		Padded:    true,
		Blocks:    blocks, BlockSize: 8, StashCapacity: 400,
		Rand:         rand.New(rand.NewSource(99)),
		OnPathAccess: func(sh, _ int, _ uint64) { counts[sh]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 8)
	batch := func(addrs []uint64) {
		t.Helper()
		before := append([]uint64(nil), counts...)
		if rng.Intn(2) == 0 {
			if _, err := s.ReadBatch(addrs); err != nil {
				t.Fatal(err)
			}
		} else {
			data := make([][]byte, len(addrs))
			for i := range data {
				data[i] = payload
			}
			if err := s.WriteBatch(addrs, data); err != nil {
				t.Fatal(err)
			}
		}
		delta := make([]uint64, shards)
		for sh := range delta {
			delta[sh] = counts[sh] - before[sh]
		}
		for sh := 1; sh < shards; sh++ {
			if delta[sh] != delta[0] {
				t.Fatalf("batch schedule not flat: per-shard delta %v", delta)
			}
		}
	}
	for round := 0; round < 12; round++ {
		addrs := make([]uint64, 32)
		switch round % 3 {
		case 0: // hammer
			for i := range addrs {
				addrs[i] = uint64(round)
			}
		case 1: // scan
			for i := range addrs {
				addrs[i] = uint64(round*17+i) % blocks
			}
		default: // random with duplicates
			for i := range addrs {
				addrs[i] = rng.Uint64() % 64
			}
		}
		batch(addrs)
	}
}

// TestPaddedFixedPartitionFlatCounts checks the padded mode under the
// stripe partition: even a batch crafted to land entirely on one shard
// produces a flat per-shard schedule (every shard executes exactly the
// busiest shard's demand), so the adversary cannot tell which slots were
// real. The shape's height still tracks the demand — that residual leak is
// the decision-table trade documented in DESIGN.md.
func TestPaddedFixedPartitionFlatCounts(t *testing.T) {
	const shards = 4
	const blocks = 256
	const k = 32
	s, err := NewSharded(Spec{
		Shards: shards,
		Padded: true,
		Blocks: blocks, BlockSize: 8, StashCapacity: 400,
		Rand: rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Every address ≡ 0 (mod shards): under striping all real requests hit
	// shard 0.
	addrs := make([]uint64, k)
	data := make([][]byte, k)
	for i := range addrs {
		addrs[i] = uint64(i*shards) % blocks
		data[i] = make([]byte, 8)
		binary.LittleEndian.PutUint64(data[i], uint64(i))
	}
	if err := s.WriteBatch(addrs, data); err != nil {
		t.Fatal(err)
	}
	sched := s.SchedulerStats()
	// On-the-wire traffic per shard is real executed requests plus padding
	// (ExecutedPerShard alone deliberately counts only real traffic).
	wire := make([]uint64, shards)
	for sh := range wire {
		wire[sh] = sched.ExecutedPerShard[sh] + sched.PaddingPerShard[sh]
	}
	for sh := 1; sh < shards; sh++ {
		if wire[sh] != wire[0] {
			t.Fatalf("padded stripe batch not flat on the wire: %v (executed %v, padding %v)",
				wire, sched.ExecutedPerShard, sched.PaddingPerShard)
		}
	}
	// The crafted batch puts every real request on shard 0; executed must
	// now say exactly that instead of being smeared by padding.
	if sched.ExecutedPerShard[0] != k {
		t.Errorf("ExecutedPerShard[0] = %d, want %d real requests", sched.ExecutedPerShard[0], k)
	}
	for sh := 1; sh < shards; sh++ {
		if sched.ExecutedPerShard[sh] != 0 {
			t.Errorf("ExecutedPerShard[%d] = %d, want 0 (all real traffic was crafted onto shard 0)",
				sh, sched.ExecutedPerShard[sh])
		}
	}
	// All k requests were real on shard 0, so every shard ran k slots:
	// k real + (shards-1)*k padding.
	if want := uint64((shards - 1) * k); sched.PaddingOps != want {
		t.Errorf("PaddingOps = %d, want %d", sched.PaddingOps, want)
	}
	// The data still round-trips through the padded path.
	got, err := s.ReadBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatalf("padded read-back mismatch at %d", i)
		}
	}
}

// TestRandomPartitionShardChoiceUniform is the chi-square test for the
// router's shard draws: over many single operations, the per-shard
// executed-request counts must be uniform across shards — the routing
// carries no address signal even for adversarial patterns.
func TestRandomPartitionShardChoiceUniform(t *testing.T) {
	const shards = 8
	const blocks = 1024
	const ops = 4000
	workloads := map[string]func(i int) uint64{
		"hammer": func(int) uint64 { return 12 },
		"scan":   func(i int) uint64 { return uint64(i) % blocks },
		"stride": func(i int) uint64 { return uint64(i*shards) % blocks },
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			s, err := NewSharded(Spec{
				Shards:    shards,
				Partition: PartitionRandom,
				Blocks:    blocks,
				Rand:      rand.New(rand.NewSource(2024)),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < ops; i++ {
				if err := s.Write(w(i), nil); err != nil {
					t.Fatal(err)
				}
			}
			// Each operation issues two legs, each on an independently
			// uniform shard: 2*ops draws over `shards` bins.
			counts := s.SchedulerStats().ExecutedPerShard
			var total uint64
			for _, c := range counts {
				total += c
			}
			if total != 2*ops {
				t.Fatalf("executed %d legs, want %d", total, 2*ops)
			}
			if x2 := testutil.ChiSquare(counts); x2 > testutil.UniformThreshold(len(counts)) {
				t.Errorf("shard choices not uniform under %q: chi2=%.1f, counts %v", name, x2, counts)
			}
		})
	}
}

// TestRandomPartitionMatchesSingleORAM replays a mixed trace against a
// single ORAM and against PartitionRandom configurations (plain and
// padded, singles and batches): oblivious routing must be purely an
// execution-layer change.
func TestRandomPartitionMatchesSingleORAM(t *testing.T) {
	const blocks = 200
	const blockSize = 16
	const steps = 60

	rng := rand.New(rand.NewSource(8))
	// A step is either a burst of single ops or a batch.
	type step struct {
		batch bool
		write bool
		addrs []uint64
		data  [][]byte
	}
	trace := make([]step, steps)
	for i := range trace {
		st := step{batch: rng.Intn(2) == 0, write: rng.Intn(2) == 0}
		n := 1 + rng.Intn(24)
		st.addrs = make([]uint64, n)
		for j := range st.addrs {
			st.addrs[j] = rng.Uint64() % blocks
		}
		if st.write {
			st.data = make([][]byte, n)
			for j := range st.data {
				st.data[j] = make([]byte, blockSize)
				rng.Read(st.data[j])
			}
		}
		trace[i] = st
	}

	run := func(t *testing.T, read func([]uint64, bool) [][]byte, write func([]uint64, [][]byte, bool)) [][][]byte {
		t.Helper()
		var out [][][]byte
		for _, st := range trace {
			if st.write {
				write(st.addrs, st.data, st.batch)
			} else {
				out = append(out, read(st.addrs, st.batch))
			}
		}
		return out
	}

	single, err := New(Spec{Blocks: blocks, BlockSize: blockSize,
		Encryption: EncryptCounter, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	want := run(t,
		func(addrs []uint64, _ bool) [][]byte {
			out := make([][]byte, len(addrs))
			for i, a := range addrs {
				d, err := single.Read(a)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = d
			}
			return out
		},
		func(addrs []uint64, data [][]byte, _ bool) {
			for i, a := range addrs {
				if err := single.Write(a, data[i]); err != nil {
					t.Fatal(err)
				}
			}
		})

	for _, padded := range []bool{false, true} {
		for _, shards := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("padded=%v/shards=%d", padded, shards), func(t *testing.T) {
				s, err := NewSharded(Spec{
					Shards: shards, Partition: PartitionRandom, Padded: padded,
					Blocks: blocks, BlockSize: blockSize,
					Encryption: EncryptCounter, Integrity: true,
					Rand: rand.New(rand.NewSource(2)),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				got := run(t,
					func(addrs []uint64, batch bool) [][]byte {
						if batch {
							out, err := s.ReadBatch(addrs)
							if err != nil {
								t.Fatal(err)
							}
							return out
						}
						out := make([][]byte, len(addrs))
						for i, a := range addrs {
							d, err := s.Read(a)
							if err != nil {
								t.Fatal(err)
							}
							out[i] = d
						}
						return out
					},
					func(addrs []uint64, data [][]byte, batch bool) {
						if batch {
							if err := s.WriteBatch(addrs, data); err != nil {
								t.Fatal(err)
							}
							return
						}
						for i, a := range addrs {
							if err := s.Write(a, data[i]); err != nil {
								t.Fatal(err)
							}
						}
					})
				for i := range want {
					for j := range want[i] {
						if !bytes.Equal(got[i][j], want[i][j]) {
							t.Fatalf("read group %d slot %d: got %x want %x", i, j, got[i][j], want[i][j])
						}
					}
				}
			})
		}
	}
}

// TestRandomPartitionSemantics pins the API edges of the oblivious router:
// duplicate handling, Update, copies, validation and close behavior.
func TestRandomPartitionSemantics(t *testing.T) {
	const blocks = 128
	const blockSize = 8
	newStore := func(padded bool) *Sharded {
		t.Helper()
		s, err := NewSharded(Spec{
			Shards: 4, Partition: PartitionRandom, Padded: padded,
			Blocks: blocks, BlockSize: blockSize,
			Rand: rand.New(rand.NewSource(6)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, padded := range []bool{false, true} {
		t.Run(fmt.Sprintf("padded=%v", padded), func(t *testing.T) {
			s := newStore(padded)
			defer s.Close()

			// A batch writing one address twice ends with the later value.
			v1, v2 := make([]byte, blockSize), make([]byte, blockSize)
			v1[0], v2[0] = 1, 2
			if err := s.WriteBatch([]uint64{9, 9}, [][]byte{v1, v2}); err != nil {
				t.Fatal(err)
			}
			d, err := s.Read(9)
			if err != nil {
				t.Fatal(err)
			}
			if d[0] != 2 {
				t.Errorf("duplicate-address batch: final value %d, want 2", d[0])
			}

			// Duplicate reads return independently mutable copies.
			got, err := s.ReadBatch([]uint64{9, 9, 9})
			if err != nil {
				t.Fatal(err)
			}
			got[0][0] = 0xFF
			if got[1][0] != 2 || got[2][0] != 2 {
				t.Error("duplicate read results share backing storage")
			}

			// Update is one logical read-modify-write.
			if err := s.Update(9, func(d []byte) { d[0]++ }); err != nil {
				t.Fatal(err)
			}
			if d, err := s.Read(9); err != nil || d[0] != 3 {
				t.Errorf("after update: (%v, %v), want value 3", d, err)
			}

			// Validation matches the fixed partitions.
			if _, err := s.Read(blocks); err == nil {
				t.Error("out-of-range read accepted")
			}
			if _, err := s.ReadBatch([]uint64{blocks}); err == nil {
				t.Error("out-of-range batch accepted")
			}

			// Close drains; later operations fail with ErrClosed.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Read(1); err == nil {
				t.Error("read after close accepted")
			}
			if err := s.Write(1, v1); err == nil {
				t.Error("write after close accepted")
			}
			if _, err := s.ReadBatch([]uint64{1, 2}); err == nil {
				t.Error("batch after close accepted")
			}
		})
	}

	// Metadata-only stores reject Update like a single ORAM does.
	s, err := NewSharded(Spec{
		Shards: 2, Partition: PartitionRandom,
		Blocks: 16, Rand: rand.New(rand.NewSource(6)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Update(3, func([]byte) {}); err == nil {
		t.Error("metadata-only Update accepted under PartitionRandom")
	}
}

// TestRandomPartitionConcurrentClients exercises the router's striped
// locking under the race detector: concurrent clients on overlapping
// addresses must serialize per address and keep values consistent.
func TestRandomPartitionConcurrentClients(t *testing.T) {
	const shards = 4
	const clients = 8
	const perClient = 32
	const blockSize = 16
	s, err := NewSharded(Spec{
		Shards:    shards,
		Partition: PartitionRandom,
		Blocks:    clients * perClient, BlockSize: blockSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	value := func(addr uint64, round int) []byte {
		d := make([]byte, blockSize)
		binary.LittleEndian.PutUint64(d, addr)
		binary.LittleEndian.PutUint64(d[8:], uint64(round))
		return d
	}
	done := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			base := uint64(c * perClient)
			for round := 0; round < 2; round++ {
				for i := uint64(0); i < perClient; i++ {
					if err := s.Write(base+i, value(base+i, round)); err != nil {
						done <- err
						return
					}
				}
				for i := uint64(0); i < perClient; i++ {
					d, err := s.Read(base + i)
					if err != nil {
						done <- err
						return
					}
					if !bytes.Equal(d, value(base+i, round)) {
						done <- fmt.Errorf("client %d round %d: read(%d) = %x", c, round, base+i, d)
						return
					}
				}
			}
			done <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
