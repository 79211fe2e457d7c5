package pathoram

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
)

// frfcfsGolden is the closing TimingStats of frfcfsGoldenRun, recorded at
// the commit before the FR-FCFS issue loop was rewritten (PR 13's
// parent). A change that only makes the simulator cheaper to run must
// leave every one of these modeled counts equal; a change that means to
// move them re-records the constants and says so.
var frfcfsGolden = TimingStats{
	DRAM: dram.Stats{
		Reads: 4258279, Writes: 4258279,
		RowHits: 7922944, RowMisses: 593614,
		Refreshes:           8586,
		DataBusBusyCycles:   34066232,
		LastCompletionCycle: 22328821,
		QueueOccupancyPeak:  8,
		BankOverlapActs:     446706,
		StarvationForced:    71664,
	},
	PathReads: 112884, PathWrites: 112884,
	ReadCycles: 38896327, WriteCycles: 18816049,
	Cycles:      22328821,
	AccessBytes: 64,
}

// frfcfsGoldenRun drives a fixed seeded op stream — prefill, then single
// reads and writes interleaved with ReadBatches of 16 — through the
// benchmark's dram-rec Spec (recursive chain, PLB, overlap 2, FR-FCFS,
// 2 channels, 1 shard) on 16384 blocks.
func frfcfsGoldenRun(t *testing.T) TimingStats {
	t.Helper()
	const blocks, blockSize, batch = 16384, 64, 16
	c, err := Open(Spec{
		Blocks: blocks, BlockSize: blockSize,
		PosMap:          PosMapRecursive,
		OnChipPosMapMax: 2048,
		PLBBytes:        8192,
		Overlap:         2,
		Backend:         BackendDRAM,
		DRAMSched:       MemSchedFRFCFS,
		DRAMChannels:    2,
		Encryption:      EncryptNone,
		Rand:            rand.New(rand.NewSource(13)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	buf := make([]byte, blockSize)
	addrs := make([]uint64, batch)
	data := make([][]byte, batch)
	for j := range data {
		data[j] = buf
	}
	for lo := uint64(0); lo < blocks; lo += batch {
		for j := range addrs {
			addrs[j] = lo + uint64(j)
		}
		if err := c.WriteBatch(addrs, data); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(14))
	for op := 0; op < 3000; op++ {
		switch rng.Intn(4) {
		case 0:
			if err := c.Write(rng.Uint64()%blocks, buf); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := c.Read(rng.Uint64() % blocks); err != nil {
				t.Fatal(err)
			}
		default:
			for j := range addrs {
				addrs[j] = rng.Uint64() % blocks
			}
			if _, err := c.ReadBatch(addrs); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts, ok := c.TimingStats()
	if !ok {
		t.Fatal("no timing stats on the dram backend")
	}
	return ts
}

// TestFRFCFSModeledCountsGolden pins "simulator-only change ⇒ every
// modeled count equal" across commits: the whole TimingStats struct of a
// fixed seeded run must equal the constants recorded at the parent.
func TestFRFCFSModeledCountsGolden(t *testing.T) {
	if got := frfcfsGoldenRun(t); got != frfcfsGolden {
		t.Fatalf("modeled counts moved:\n got %+v\nwant %+v", got, frfcfsGolden)
	}
}
