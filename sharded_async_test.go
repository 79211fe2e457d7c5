package pathoram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// Tests for the async (staged) serving mode. Everything here is named
// TestAsync* so CI can run the whole async suite with `-run Async`.

// asyncConfig returns a Spec with the staged pipeline on.
func asyncConfig(shards int, blocks uint64, part Partition, seed int64) Spec {
	return Spec{
		Shards:    shards,
		Partition: part,
		Blocks:    blocks, BlockSize: 16,
		Encryption:    EncryptCounter,
		AsyncEviction: true,
		Rand:          rand.New(rand.NewSource(seed)),
	}
}

// TestAsyncEquivalenceReplay is the drain-semantics acceptance test: a
// trace replayed against sync-mode and async-mode sharded ORAMs (and a
// plain map) must read identically at every step, and after Flush the
// async instance must hold exactly the same logical contents with nothing
// deferred and every stash drained to the synchronous invariant.
func TestAsyncEquivalenceReplay(t *testing.T) {
	const blocks = 300
	const ops = 2500
	for _, part := range []Partition{PartitionStripe, PartitionRange, PartitionRandom} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", partName(part), shards), func(t *testing.T) {
				syncS, err := NewSharded(Spec{
					Shards: shards, Partition: part,
					Blocks: blocks, BlockSize: 16,
					Encryption: EncryptCounter,
					Rand:       rand.New(rand.NewSource(11)),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer syncS.Close()
				asyncS, err := NewSharded(asyncConfig(shards, blocks, part, 12))
				if err != nil {
					t.Fatal(err)
				}
				defer asyncS.Close()

				shadow := map[uint64][]byte{}
				expect := func(addr uint64) []byte {
					if d, ok := shadow[addr]; ok {
						return d
					}
					return make([]byte, 16)
				}
				rng := rand.New(rand.NewSource(13))
				for i := 0; i < ops; i++ {
					addr := rng.Uint64() % blocks
					switch rng.Intn(3) {
					case 0:
						d := make([]byte, 16)
						rng.Read(d)
						if err := syncS.Write(addr, d); err != nil {
							t.Fatal(err)
						}
						if err := asyncS.Write(addr, d); err != nil {
							t.Fatal(err)
						}
						shadow[addr] = d
					case 1:
						want := expect(addr)
						gotSync, err := syncS.Read(addr)
						if err != nil {
							t.Fatal(err)
						}
						gotAsync, err := asyncS.Read(addr)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(gotSync, want) || !bytes.Equal(gotAsync, want) {
							t.Fatalf("op %d: read(%d) sync=%x async=%x want %x",
								i, addr, gotSync, gotAsync, want)
						}
					default:
						inc := func(d []byte) { d[3]++ }
						if err := syncS.Update(addr, inc); err != nil {
							t.Fatal(err)
						}
						if err := asyncS.Update(addr, inc); err != nil {
							t.Fatal(err)
						}
						d := append([]byte(nil), expect(addr)...)
						d[3]++
						shadow[addr] = d
					}
				}

				if err := asyncS.Flush(); err != nil {
					t.Fatal(err)
				}
				if n := asyncS.PendingWriteBacks(); n != 0 {
					t.Fatalf("%d write-backs pending after Flush", n)
				}
				// Full-content comparison through both instances.
				addrs := make([]uint64, blocks)
				for a := range addrs {
					addrs[a] = uint64(a)
				}
				gotSync, err := syncS.ReadBatch(addrs)
				if err != nil {
					t.Fatal(err)
				}
				gotAsync, err := asyncS.ReadBatch(addrs)
				if err != nil {
					t.Fatal(err)
				}
				for a := range addrs {
					want := expect(uint64(a))
					if !bytes.Equal(gotSync[a], want) || !bytes.Equal(gotAsync[a], want) {
						t.Fatalf("final contents diverge at %d: sync=%x async=%x want %x",
							a, gotSync[a], gotAsync[a], want)
					}
				}
				// The async run must actually have exercised deferral.
				if st := asyncS.Stats(); st.DeferredWriteBacks == 0 {
					t.Error("async replay recorded no deferred write-backs")
				}
			})
		}
	}
}

func partName(p Partition) string {
	switch p {
	case PartitionRange:
		return "range"
	case PartitionRandom:
		return "random"
	default:
		return "stripe"
	}
}

// TestAsyncConcurrentClientsDrainOnClose hammers an async sharded ORAM
// from many goroutines (the -race half of the drain test), closes it with
// work still in flight, and checks the drain guarantee: after Close every
// shard is fully written back and its stash is at the synchronous
// protocol's between-access invariant.
func TestAsyncConcurrentClientsDrainOnClose(t *testing.T) {
	const shards = 4
	const blocks = 1024
	const clients = 8
	const opsPer = 150
	s, err := NewSharded(asyncConfig(shards, blocks, PartitionStripe, 21))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Disjoint per-client address slices: read-your-writes holds
			// without cross-client coordination.
			base := uint64(c) * (blocks / clients)
			buf := make([]byte, 16)
			for i := 0; i < opsPer; i++ {
				addr := base + uint64(i)%(blocks/clients)
				binary.LittleEndian.PutUint64(buf, addr)
				if err := s.Write(addr, buf); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				got, err := s.Read(addr)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if binary.LittleEndian.Uint64(got) != addr {
					t.Errorf("client %d: read-your-writes violated at %d", c, addr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-Close inspection reads the quiescent shards directly.
	if n := s.PendingWriteBacks(); n != 0 {
		t.Errorf("%d write-backs pending after Close", n)
	}
	for i, st := range s.ShardStats() {
		if st.DeferredWriteBacks == 0 && st.RealAccesses > 0 {
			t.Errorf("shard %d: async mode never deferred (%d real accesses)", i, st.RealAccesses)
		}
	}
	// Every shard's stash must be at or below the background-eviction
	// threshold, exactly as the synchronous mode leaves it.
	if s.StashSize() > shards*200 {
		t.Errorf("summed stash %d exceeds %d", s.StashSize(), shards*200)
	}
}

// TestAsyncInspectSnapshotsConsistent takes stats snapshots while async
// traffic is in flight: because inspections flush first, the snapshot
// must never show deferred remainders, and the occupancy gauge must stay
// exact.
func TestAsyncInspectSnapshotsConsistent(t *testing.T) {
	const blocks = 256
	s, err := NewSharded(asyncConfig(4, blocks, PartitionStripe, 31))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 16)
	written := map[uint64]bool{}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 400; i++ {
		addr := rng.Uint64() % blocks
		if err := s.Write(addr, buf); err != nil {
			t.Fatal(err)
		}
		written[addr] = true
		if i%50 == 49 {
			st := s.Stats()
			if got, want := st.BlocksInORAM, uint64(len(written)); got != want {
				t.Fatalf("op %d: snapshot BlocksInORAM = %d, want %d", i, got, want)
			}
			if n := s.PendingWriteBacks(); n != 0 {
				t.Fatalf("op %d: %d write-backs survived the snapshot flush", i, n)
			}
		}
	}
}

// TestAsyncSingleORAMWiring covers the public single-ORAM staged API:
// AsyncEviction defers, StepBackground drains, Flush quiesces, and
// ResetStats clears the staged counters while keeping the occupancy
// gauge.
func TestAsyncSingleORAMWiring(t *testing.T) {
	o, err := New(Spec{
		Blocks: 128, BlockSize: 16,
		Encryption:    EncryptCounter,
		AsyncEviction: true,
		Rand:          rand.New(rand.NewSource(41)),
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	for a := uint64(0); a < 128; a++ {
		if err := o.Write(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	if o.PendingWriteBacks() == 0 {
		t.Fatal("AsyncEviction on, but nothing deferred")
	}
	st := o.Stats()
	if st.DeferredWriteBacks == 0 || st.PendingWriteBackPeak == 0 {
		t.Fatalf("staged counters flat: %+v", st)
	}
	// Manual idle loop: drain until quiescent.
	for {
		w, err := o.StepBackground(true)
		if err != nil {
			t.Fatal(err)
		}
		if w == BgNone {
			break
		}
	}
	if o.PendingWriteBacks() != 0 {
		t.Errorf("%d write-backs pending after StepBackground drained to BgNone", o.PendingWriteBacks())
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	o.ResetStats()
	st = o.Stats()
	if st.DeferredWriteBacks != 0 || st.IdleEvictions != 0 || st.PendingWriteBackPeak != 0 {
		t.Errorf("ResetStats left staged counters: %+v", st)
	}
	if st.BlocksInORAM != 128 {
		t.Errorf("ResetStats lost the occupancy gauge: %d, want 128", st.BlocksInORAM)
	}
	// Contents survive it all.
	got, err := o.Read(17)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Errorf("read after drain = %x, want %x", got, buf)
	}
}

// TestAsyncLeafSequencesUniform is the security half of the async mode:
// with background eviction running on the idle schedule, every shard's
// complete observed path sequence — real accesses, deferred write-backs'
// reads and idle-time dummies alike — must stay uniform over its leaves,
// for adversarial workloads included. (Write-backs re-touch the same
// uniformly drawn leaf the read revealed; idle dummies draw fresh uniform
// leaves on a schedule that depends only on queue and stash occupancy.)
func TestAsyncLeafSequencesUniform(t *testing.T) {
	const shards = 4
	const blocks = 768
	const leafLevel = 6
	const accesses = 8000
	for name, w := range map[string]func(i int) uint64{
		"hammer": func(i int) uint64 { return 7 },
		"scan":   func(i int) uint64 { return uint64(i) % blocks },
	} {
		t.Run(name, func(t *testing.T) {
			hists := make([][]uint64, shards)
			for i := range hists {
				hists[i] = make([]uint64, 1<<leafLevel)
			}
			s, err := NewSharded(Spec{
				Shards: shards,
				Blocks: blocks, LeafLevel: leafLevel, Z: 4,
				StashCapacity: 150,
				AsyncEviction: true,
				Rand:          rand.New(rand.NewSource(9002)),
				OnPathAccess:  func(sh, _ int, leaf uint64) { hists[sh][leaf]++ },
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
			if err := s.Close(); err != nil { // include the close-time drain in the histogram
				t.Fatal(err)
			}
			for sh, counts := range hists {
				var total uint64
				for _, c := range counts {
					total += c
				}
				if total < 500 {
					continue
				}
				if x2 := testutil.ChiSquare(counts); x2 > testutil.UniformThreshold(len(counts)) {
					t.Errorf("shard %d: async leaf distribution not uniform under %q: chi2=%.1f (%d samples)",
						sh, name, x2, total)
				}
			}
		})
	}
}

// TestAsyncIdlePumpOwesWriteBacksOnly: on the tight-async engine-golden
// geometry, whose stashes often sit above the idle low-water mark, an
// untimed pool left idle between requests completes owed write-backs in
// the gaps and issues no speculative eviction.
func TestAsyncIdlePumpOwesWriteBacksOnly(t *testing.T) {
	const blocks = 1024
	s, err := NewSharded(Spec{Blocks: blocks, BlockSize: 16, Encryption: EncryptNone, Shards: 2,
		Z: 2, Utilization: 0.75, StashCapacity: 24, AsyncEviction: true, MaxDeferredWriteBacks: 4,
		Rand: rand.New(rand.NewSource(23))})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(29))
	buf := make([]byte, 16)
	for i := 0; i < 600; i++ {
		if err := s.Write(rng.Uint64()%blocks, buf); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			time.Sleep(time.Millisecond)
		}
	}
	if st := s.SchedulerStats(); st.IdleEvictions != 0 || st.IdleWriteBacks == 0 {
		t.Errorf("idle time issued %d evictions and completed %d write-backs; want 0 and some",
			st.IdleEvictions, st.IdleWriteBacks)
	}
}

// TestAsyncSnapshotsFlushFirst: every Sharded snapshot flushes each shard
// before it reads, so it observes what the synchronous protocol would
// show, while PendingWriteBacks, the backlog gauge, does not flush. A
// timed pool has no idle pump, so its backlog holds still until a
// snapshot drains it.
func TestAsyncSnapshotsFlushFirst(t *testing.T) {
	s, err := NewSharded(dramConfig(2, 256, PartitionStripe, true, 21))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 16)
	for _, snap := range []struct {
		name string
		take func()
	}{
		{"Stats", func() { s.Stats() }},
		{"ShardStats", func() { s.ShardStats() }},
		{"ResetStats", s.ResetStats},
		{"StashSize", func() { s.StashSize() }},
		{"ExternalMemoryBytes", func() { s.ExternalMemoryBytes() }},
		{"TimingStats", func() { s.TimingStats() }},
	} {
		for a := uint64(0); a < 4; a++ {
			if err := s.Write(a, buf); err != nil {
				t.Fatal(err)
			}
		}
		before := s.PendingWriteBacks()
		if before == 0 {
			t.Fatalf("%s: nothing deferred before the snapshot", snap.name)
		}
		if again := s.PendingWriteBacks(); again != before {
			t.Fatalf("%s: the backlog gauge moved the backlog: %d then %d", snap.name, before, again)
		}
		snap.take()
		if n := s.PendingWriteBacks(); n != 0 {
			t.Errorf("%s left %d write-backs pending", snap.name, n)
		}
	}
}

// TestAsyncFlushIsIdleBarrier is FuzzOpenSpec's Flush-idempotence check on
// the state behind its old intermittent "Flush on a quiescent client
// changed stats": AsyncEviction, and a flushed stash that still sits above
// the idle low-water mark (half the inline threshold), where a speculative
// idle eviction would have been due. Each such round leaves the shard idle
// long enough to take idle steps, inspects it again and flushes again;
// nothing may change, since the idle pump only completes owed write-backs.
// internal/shard's TestAsyncInspectionStartsNoIdleEviction is the same
// check on a fake engine.
func TestAsyncFlushIsIdleBarrier(t *testing.T) {
	const blocks = 512
	s, err := NewSharded(Spec{Blocks: blocks, BlockSize: 16, Encryption: EncryptNone,
		Z: 2, Utilization: 0.75, StashCapacity: 24, AsyncEviction: true,
		Rand: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := s.engines[0].inner.Level(0)
	rng := rand.New(rand.NewSource(10))
	buf := make([]byte, 16)
	due := 0
	for round := 0; round < 200 && due < 5; round++ {
		for i := 0; i < 16; i++ {
			if err := s.Write(rng.Uint64()%blocks, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		var above bool
		if err := s.pool.Inspect(0, func() error {
			above = data.StashSize() > data.Params().EvictionThreshold()/2
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !above {
			continue
		}
		due++
		st, idle := s.Stats(), s.SchedulerStats().IdleEvictions
		time.Sleep(5 * time.Millisecond)
		_, _ = s.StashSize(), s.PendingWriteBacks()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats(); got != st {
			t.Fatalf("round %d: Flush on a quiescent client changed stats: %+v -> %+v", round, st, got)
		}
		if got := s.SchedulerStats().IdleEvictions; got != idle {
			t.Fatalf("round %d: %d idle evictions after Flush", round, got-idle)
		}
	}
	if due == 0 {
		t.Fatal("no flushed stash sat above the idle low-water mark: the spec no longer reaches the state")
	}
}
