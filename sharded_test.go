package pathoram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/testutil"
)

func shardedPartitions() []Partition { return []Partition{PartitionStripe, PartitionRange} }

func (p Partition) testName() string {
	if p == PartitionRange {
		return "range"
	}
	return "stripe"
}

// TestShardedMatchesSingleORAM replays one trace of mixed operations
// against a single ORAM and against Sharded configurations and requires
// byte-identical results: sharding must be purely an execution-layer
// change.
func TestShardedMatchesSingleORAM(t *testing.T) {
	const blocks = 300
	const blockSize = 32
	const ops = 3000

	type step struct {
		op   int // 0 read, 1 write, 2 update
		addr uint64
		data []byte
	}
	rng := rand.New(rand.NewSource(42))
	trace := make([]step, ops)
	for i := range trace {
		st := step{op: rng.Intn(3), addr: rng.Uint64() % blocks}
		if st.op == 1 {
			st.data = make([]byte, blockSize)
			rng.Read(st.data)
		}
		trace[i] = st
	}
	increment := func(d []byte) {
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)+1)
	}

	single, err := New(Spec{Blocks: blocks, BlockSize: blockSize,
		Encryption: EncryptCounter, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, ops)
	for i, st := range trace {
		switch st.op {
		case 0:
			d, err := single.Read(st.addr)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = d
		case 1:
			if err := single.Write(st.addr, st.data); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := single.Update(st.addr, increment); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, part := range shardedPartitions() {
		for _, shards := range []int{1, 3, 4, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", part.testName(), shards), func(t *testing.T) {
				s, err := NewSharded(Spec{
					Shards: shards, Partition: part,
					Blocks: blocks, BlockSize: blockSize,
					Encryption: EncryptCounter, Integrity: true,
					Rand: rand.New(rand.NewSource(2)),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for i, st := range trace {
					switch st.op {
					case 0:
						d, err := s.Read(st.addr)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(d, want[i]) {
							t.Fatalf("op %d: read(%d) = %x, single ORAM read %x",
								i, st.addr, d, want[i])
						}
					case 1:
						if err := s.Write(st.addr, st.data); err != nil {
							t.Fatal(err)
						}
					case 2:
						if err := s.Update(st.addr, increment); err != nil {
							t.Fatal(err)
						}
					}
				}
				st := s.Stats()
				if st.RealAccesses == 0 {
					t.Error("merged stats report no real accesses")
				}
			})
		}
	}
}

// TestShardedPartitionCoverage checks that every logical address maps to
// exactly one (shard, local) slot and that per-shard sizes add up.
func TestShardedPartitionCoverage(t *testing.T) {
	for _, part := range shardedPartitions() {
		for _, tc := range []struct{ blocks, shards uint64 }{
			{10, 4}, {9, 4}, {16, 4}, {1, 1}, {5, 5}, {1000, 7},
		} {
			s, err := NewSharded(Spec{
				Shards: int(tc.shards), Partition: part,
				Blocks: tc.blocks,
			})
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[[2]uint64]bool)
			var total uint64
			for i := 0; i < s.NumShards(); i++ {
				total += s.shardBlocks(i)
			}
			if total != tc.blocks {
				t.Errorf("%s %d/%d: shard sizes sum to %d, want %d",
					part.testName(), tc.blocks, tc.shards, total, tc.blocks)
			}
			for a := uint64(0); a < tc.blocks; a++ {
				sh, local := s.shardOf(a)
				if sh < 0 || sh >= s.NumShards() {
					t.Fatalf("%s: addr %d mapped to shard %d", part.testName(), a, sh)
				}
				if local >= s.shardBlocks(sh) {
					t.Fatalf("%s: addr %d mapped to local %d beyond shard %d size %d",
						part.testName(), a, local, sh, s.shardBlocks(sh))
				}
				key := [2]uint64{uint64(sh), local}
				if seen[key] {
					t.Fatalf("%s: slot %v assigned twice", part.testName(), key)
				}
				seen[key] = true
			}
			s.Close()
		}
	}
}

// TestShardedConcurrentClients drives 8 concurrent clients over 4 shards
// (the acceptance configuration) with verified read-back. Run under -race.
func TestShardedConcurrentClients(t *testing.T) {
	const shards = 4
	const clients = 8
	const perClient = 64
	const blockSize = 24
	s, err := NewSharded(Spec{
		Shards: shards,
		Blocks: clients * perClient, BlockSize: blockSize,
		Encryption: EncryptCounter,
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
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			// Each client owns a disjoint address slice, so expected
			// values are deterministic even under interleaving.
			base := uint64(c * perClient)
			for round := 0; round < 3; round++ {
				for i := uint64(0); i < perClient; i++ {
					if err := s.Write(base+i, value(base+i, round)); err != nil {
						t.Errorf("client %d write: %v", c, err)
						return
					}
				}
				for n := 0; n < perClient; n++ {
					a := base + rng.Uint64()%perClient
					d, err := s.Read(a)
					if err != nil {
						t.Errorf("client %d read: %v", c, err)
						return
					}
					if !bytes.Equal(d, value(a, round)) {
						t.Errorf("client %d round %d: read(%d) = %x", c, round, a, d)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	st := s.Stats()
	if st.RealAccesses == 0 {
		t.Error("no real accesses recorded")
	}
	sched := s.SchedulerStats()
	var executed uint64
	for _, n := range sched.ExecutedPerShard {
		executed += n
	}
	if executed != sched.SingleOps {
		t.Errorf("executed %d requests, submitted %d", executed, sched.SingleOps)
	}
}

// TestShardedBatchOrder verifies ReadBatch returns results in input order
// and WriteBatch applies same-shard requests in slice order.
func TestShardedBatchOrder(t *testing.T) {
	const blocks = 256
	const blockSize = 16
	s, err := NewSharded(Spec{
		Shards: 4,
		Blocks: blocks, BlockSize: blockSize,
		Encryption: EncryptNone, Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(4))
	addrs := make([]uint64, blocks)
	data := make([][]byte, blocks)
	for i := range addrs {
		addrs[i] = uint64(i)
		data[i] = make([]byte, blockSize)
		binary.LittleEndian.PutUint64(data[i], uint64(i)^0xABCD)
	}
	// Shuffle so batch order != address order != shard order.
	rng.Shuffle(len(addrs), func(i, j int) {
		addrs[i], addrs[j] = addrs[j], addrs[i]
		data[i], data[j] = data[j], data[i]
	})
	if err := s.WriteBatch(addrs, data); err != nil {
		t.Fatal(err)
	}

	readAddrs := make([]uint64, blocks)
	for i := range readAddrs {
		readAddrs[i] = rng.Uint64() % blocks
	}
	got, err := s.ReadBatch(readAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(readAddrs) {
		t.Fatalf("got %d results for %d addresses", len(got), len(readAddrs))
	}
	for i, a := range readAddrs {
		want := uint64(a) ^ 0xABCD
		if v := binary.LittleEndian.Uint64(got[i]); v != want {
			t.Errorf("result %d: read(%d) = %d, want %d — batch results out of input order", i, a, v, want)
		}
	}

	// A batch writing the same address twice must end with the later value.
	dup := []uint64{7, 7}
	v1 := make([]byte, blockSize)
	v2 := make([]byte, blockSize)
	v1[0], v2[0] = 1, 2
	if err := s.WriteBatch(dup, [][]byte{v1, v2}); err != nil {
		t.Fatal(err)
	}
	d, err := s.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 2 {
		t.Errorf("duplicate-address batch: final value %d, want 2", d[0])
	}

	// Empty batches are no-ops.
	if res, err := s.ReadBatch(nil); err != nil || res != nil {
		t.Errorf("empty ReadBatch = (%v, %v)", res, err)
	}
	if err := s.WriteBatch(nil, nil); err != nil {
		t.Errorf("empty WriteBatch = %v", err)
	}
	// Mismatched lengths and bad addresses fail fast.
	if err := s.WriteBatch([]uint64{1}, nil); err == nil {
		t.Error("mismatched WriteBatch accepted")
	}
	if _, err := s.ReadBatch([]uint64{blocks + 1}); err == nil {
		t.Error("out-of-range ReadBatch accepted")
	}
}

// TestShardedCloseDrains submits from concurrent clients while Close runs:
// every operation must either complete successfully or fail with ErrClosed
// — nothing hangs, nothing panics, and stats remain readable after Close.
func TestShardedCloseDrains(t *testing.T) {
	const blocks = 512
	s, err := NewSharded(Spec{
		Shards: 4,
		Blocks: blocks, BlockSize: 16, Encryption: EncryptNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				err := s.Write(uint64((c*200+i)%blocks), buf)
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("client %d: unexpected error %v", c, err)
					return
				}
			}
		}(c)
	}
	close(start)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Read(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after Close = %v, want ErrClosed", err)
	}
	if _, err := s.ReadBatch([]uint64{0}); !errors.Is(err, ErrClosed) {
		t.Errorf("ReadBatch after Close = %v, want ErrClosed", err)
	}
	// The drained shards stay inspectable: accepted writes are visible in
	// the merged counters.
	st := s.Stats()
	sched := s.SchedulerStats()
	var executed uint64
	for _, n := range sched.ExecutedPerShard {
		executed += n
	}
	if st.RealAccesses != executed {
		t.Errorf("merged RealAccesses = %d, scheduler executed %d", st.RealAccesses, executed)
	}
}

// TestShardedLeafSequencesUniform is the sharded layer's security test: no
// matter how adversarial the logical access pattern, every shard's observed
// path sequence must stay uniform over its leaves — the per-shard Path ORAM
// invariant survives the serving layer (scheduling, batching, per-shard key
// and randomness derivation).
func TestShardedLeafSequencesUniform(t *testing.T) {
	const shards = 4
	const blocks = 768 // 192 per shard
	const leafLevel = 6
	const accesses = 8000
	workloads := map[string]func(i int) uint64{
		// Hammer one address: all traffic lands on one shard — its leaf
		// sequence must still be uniform.
		"hammer": func(i int) uint64 { return 7 },
		// Sequential scan round-robins the shards under striping.
		"scan": func(i int) uint64 { return uint64(i) % blocks },
		// Stride chosen adversarially equal to the shard count: under
		// striping all traffic hits a single shard.
		"shard-aligned-stride": func(i int) uint64 { return uint64(i*shards) % blocks },
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			hists := make([][]uint64, shards)
			for i := range hists {
				hists[i] = make([]uint64, 1<<leafLevel)
			}
			s, err := NewSharded(Spec{
				Shards: shards,
				Blocks: blocks, LeafLevel: leafLevel, Z: 4,
				StashCapacity: 150,
				Rand:          rand.New(rand.NewSource(9001)),
				// Per-shard slots: shards write disjoint histograms.
				OnPathAccess: func(sh, _ int, leaf uint64) { hists[sh][leaf]++ },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < accesses; i++ {
				if err := s.Write(w(i), nil); err != nil {
					t.Fatal(err)
				}
			}
			for sh, counts := range hists {
				var total uint64
				for _, c := range counts {
					total += c
				}
				if total == 0 {
					continue // adversarial pattern never touched this shard
				}
				if total < 500 {
					continue // too few samples for a meaningful chi-square
				}
				if x2 := testutil.ChiSquare(counts); x2 > testutil.UniformThreshold(len(counts)) {
					t.Errorf("shard %d: leaf distribution not uniform under %q: chi2=%.1f (%d samples, %d dof)",
						sh, name, x2, total, len(counts)-1)
				}
			}
		})
	}
}

// TestShardedDeterministicReplay checks the per-shard Rand derivation: the
// same parent seed must reproduce the exact same per-shard path sequences.
func TestShardedDeterministicReplay(t *testing.T) {
	observe := func(seed int64) [][]uint64 {
		var mu sync.Mutex
		seqs := make([][]uint64, 3)
		s, err := NewSharded(Spec{
			Shards: 3,
			Blocks: 300, Rand: rand.New(rand.NewSource(seed)),
			OnPathAccess: func(sh, _ int, leaf uint64) {
				mu.Lock()
				seqs[sh] = append(seqs[sh], leaf)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 500; i++ {
			if err := s.Write(uint64(i)%300, nil); err != nil {
				t.Fatal(err)
			}
		}
		return seqs
	}
	a, b := observe(77), observe(77)
	c := observe(78)
	for sh := range a {
		if fmt.Sprint(a[sh]) != fmt.Sprint(b[sh]) {
			t.Errorf("shard %d: same seed produced different path sequences", sh)
		}
	}
	same := 0
	for sh := range a {
		if fmt.Sprint(a[sh]) == fmt.Sprint(c[sh]) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different parent seeds produced identical per-shard sequences")
	}
}

// TestShardedKeyDerivation checks shard keys are pairwise distinct and
// differ from the master key.
func TestShardedKeyDerivation(t *testing.T) {
	master := bytes.Repeat([]byte{0x5A}, 16)
	keys, err := deriveShardKeys(master, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{string(master): true}
	for i, k := range keys {
		if seen[string(k)] {
			t.Errorf("shard key %d collides (with master or an earlier shard)", i)
		}
		seen[string(k)] = true
	}
	if _, err := deriveShardKeys([]byte{1, 2, 3}, 2); err == nil {
		t.Error("short master key accepted")
	}
	// Domain separation: under one master secret, shard i's key must
	// differ from hierarchy level i's key (hierarchy.go deriveKey), or the
	// two constructions would share counter-scheme pads.
	for i, k := range keys {
		hk, err := deriveKey(master, i)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(k, hk) {
			t.Errorf("shard key %d equals hierarchy level-%d key: missing domain separation", i, i)
		}
	}
}

func TestShardedConfigValidation(t *testing.T) {
	if _, err := NewSharded(Spec{Blocks: 0}); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := NewSharded(Spec{Shards: -1, Blocks: 8}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := NewSharded(Spec{Shards: 9, Blocks: 8}); err == nil {
		t.Error("more shards than blocks accepted")
	}
	if _, err := NewSharded(Spec{Partition: Partition(9), Blocks: 8}); err == nil {
		t.Error("unknown partition accepted")
	}
	// An unused Key of arbitrary length must not break plaintext configs
	// (metadata-only forces EncryptNone; the key is never touched) ...
	if s, err := NewSharded(Spec{Shards: 2,
		Blocks: 8, Key: []byte("20-byte-test-token!!")}); err != nil {
		t.Errorf("metadata-only config with odd key rejected: %v", err)
	} else {
		s.Close()
	}
	// ... but an encrypted config demands a 16-byte master: a longer key
	// must be rejected loudly, not silently downgraded to AES-128 subkeys.
	if _, err := NewSharded(Spec{Shards: 2,
		Blocks: 8, BlockSize: 8, Key: make([]byte, 32)}); err == nil {
		t.Error("32-byte master key silently accepted for encrypted shards")
	}
	s, err := NewSharded(Spec{Blocks: 8, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumShards() != 1 {
		t.Errorf("default shard count = %d, want 1", s.NumShards())
	}
	if s.Blocks() != 8 {
		t.Errorf("Blocks() = %d, want 8", s.Blocks())
	}
	if _, err := s.Read(8); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := s.Write(8, make([]byte, 8)); err == nil {
		t.Error("out-of-range write accepted")
	}
	if err := s.Update(8, func([]byte) {}); err == nil {
		t.Error("out-of-range update accepted")
	}
}
