package pathoram

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Tests named TestChain* are a required suite of the CI race job.

// chainGoldenCase is one single-engine timed design point of the grid
// below.
type chainGoldenCase struct {
	name string
	spec Spec
}

// chainGoldenCases is the grid of one-engine timed chains whose modeled
// counts pin the chain's timing rule: recursive chains at Overlap 0-3 on
// the in-order bus and on FR-FCFS queues two and eight deep, with and
// without a PLB; DRAMSerialize on a flat and on a recursive engine; and a
// staged recursive engine that only explicit StepBackground and Flush
// calls drain.
func chainGoldenCases() []chainGoldenCase {
	rec := Spec{BlockSize: 16, Encryption: EncryptNone,
		PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 64, Backend: BackendDRAM}
	var cases []chainGoldenCase
	for overlap := 0; overlap <= 3; overlap++ {
		for _, q := range []struct {
			name  string
			sched MemSched
			depth int
		}{{"inorder", MemSchedInOrder, 0}, {"frfcfs-qd2", MemSchedFRFCFS, 2}, {"frfcfs-qd8", MemSchedFRFCFS, 8}} {
			for _, plb := range []uint64{0, 512} {
				s := rec
				s.Overlap, s.DRAMSched, s.DRAMQueueDepth, s.PLBBytes = overlap, q.sched, q.depth, plb
				cases = append(cases, chainGoldenCase{fmt.Sprintf("ov%d/%s/plb%d", overlap, q.name, plb), s})
			}
		}
	}
	serial := rec
	serial.DRAMSerialize = true
	flatSerial := Spec{BlockSize: 16, Encryption: EncryptNone, Backend: BackendDRAM, DRAMSerialize: true}
	staged := rec
	staged.AsyncEviction, staged.Overlap, staged.PLBBytes, staged.DRAMSched = true, 2, 512, MemSchedFRFCFS
	return append(cases,
		chainGoldenCase{"serialize/flat", flatSerial},
		chainGoldenCase{"serialize/rec", serial},
		chainGoldenCase{"staged/rec-ov2-frfcfs-plb512", staged})
}

// TestChainTimingGolden drives the engine goldens' op stream through one
// bare engine of every grid point and compares the closing TimingStats
// with the constants in chainGoldens. Re-record with
//
//	go test -run TestChainTimingGolden -record-engine-golden . | grep '^	"'
func TestChainTimingGolden(t *testing.T) {
	for _, c := range chainGoldenCases() {
		t.Run(c.name, func(t *testing.T) {
			got := runEngineGolden(t, c.spec, 1).timing
			if *recordEngineGolden {
				fmt.Printf("\t%q: %q,\n", c.name, got)
				return
			}
			want, ok := chainGoldens[c.name]
			if !ok {
				t.Fatalf("no golden recorded for %s", c.name)
			}
			if got != want {
				t.Errorf("modeled counts moved:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// chainFlatRun drives DESIGN.md's "One engine" configuration — a seeded
// 2-shard Open of 8,192 32-byte blocks on LeafLevel-11 trees, 3,000 mixed
// Write/Read/16-wide ReadBatch ops — and returns its closing TimingStats.
func chainFlatRun(t *testing.T, spec Spec) TimingStats {
	t.Helper()
	const blocks, batch = 8192, 16
	spec.Blocks, spec.BlockSize, spec.LeafLevel, spec.Shards = blocks, 32, 11, 2
	spec.Rand = rand.New(rand.NewSource(7))
	c, err := Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, spec.BlockSize)
	addrs := make([]uint64, batch)
	rng := rand.New(rand.NewSource(8))
	for op := 0; op < 3000; op++ {
		switch rng.Intn(3) {
		case 0:
			err = c.Write(rng.Uint64()%blocks, buf)
		case 1:
			_, err = c.Read(rng.Uint64() % blocks)
		default:
			for j := range addrs {
				addrs[j] = rng.Uint64() % blocks
			}
			_, err = c.ReadBatch(addrs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ts, ok := c.TimingStats()
	if !ok {
		t.Fatal("no timing stats on the dram backend")
	}
	return ts
}

// TestChainFlatEquivalence: a recursive spec whose whole position map fits
// on chip is a chain of one ORAM, and on two shards of one bus its modeled
// time must equal the flat spec's — the flat engine's own cycle counts,
// unchanged since before chains retired their dependencies in the bus.
func TestChainFlatEquivalence(t *testing.T) {
	for _, c := range []struct {
		sched  MemSched
		cycles uint64
	}{{MemSchedInOrder, 9_157_331}, {MemSchedFRFCFS, 3_256_121}} {
		flat := Spec{Encryption: EncryptNone, Backend: BackendDRAM, DRAMSched: c.sched}
		rec := flat
		rec.PosMap, rec.OnChipPosMapMax = PosMapRecursive, 1<<40
		f := chainFlatRun(t, flat)
		if f.Cycles != c.cycles {
			t.Errorf("sched %v: flat spec ran %d cycles, want %d", c.sched, f.Cycles, c.cycles)
		}
		if r := chainFlatRun(t, rec); r != f {
			t.Errorf("sched %v: one-ORAM chain diverged from the flat engine:\nflat  %+v\nchain %+v", c.sched, f, r)
		}
	}
}

// TestChainTwoShardDeterministic pins TestQueueDeterministicAcrossGOMAXPROCS's
// deployments (seed 3) to constants, so that every run — at GOMAXPROCS 1, 2
// and 4, across -count repetitions and under -race — must land on the same
// modeled counts. Re-record with
//
//	go test -run TestChainTwoShardDeterministic -record-engine-golden . | grep '^	"'
func TestChainTwoShardDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range queueShapes {
		for _, sched := range []MemSched{MemSchedInOrder, MemSchedFRFCFS} {
			key := fmt.Sprintf("%s/%v", sh.name, sched)
			want := chainTwoShardGoldens[key]
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got := fmt.Sprintf("%+v", queueDeterminismRun(t, sched, sh.shape, 3))
				if *recordEngineGolden {
					fmt.Printf("\t%q: %q,\n", key, got)
					break
				}
				if got != want {
					t.Errorf("%s at GOMAXPROCS %d:\n got %s\nwant %s", key, procs, got, want)
				}
			}
		}
	}
}

// chainGoldens holds the grid's closing TimingStats, recorded at 1deb5bc,
// where every chain level's timer still polled the bus after each stage.
var chainGoldens = map[string]string{
	"ov0/inorder/plb0":             "{DRAM:{Reads:233658 Writes:233658 RowHits:433062 RowMisses:34254 Refreshes:1286 DataBusBusyCycles:1869264 LastCompletionCycle:3347557 QueueOccupancyPeak:0 BankOverlapActs:0 StarvationForced:0} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1978325 WriteCycles:1369232 Cycles:3347557 AccessBytes:64}",
	"ov0/inorder/plb512":           "{DRAM:{Reads:233230 Writes:233230 RowHits:432458 RowMisses:34002 Refreshes:1284 DataBusBusyCycles:1865840 LastCompletionCycle:3338949 QueueOccupancyPeak:0 BankOverlapActs:0 StarvationForced:0} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1978121 WriteCycles:1360828 Cycles:3338949 AccessBytes:64}",
	"ov0/frfcfs-qd2/plb0":          "{DRAM:{Reads:233658 Writes:233658 RowHits:434950 RowMisses:32366 Refreshes:772 DataBusBusyCycles:1869264 LastCompletionCycle:2011810 QueueOccupancyPeak:2 BankOverlapActs:3204 StarvationForced:0} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1215861 WriteCycles:795949 Cycles:2011810 AccessBytes:64}",
	"ov0/frfcfs-qd2/plb512":        "{DRAM:{Reads:233230 Writes:233230 RowHits:434410 RowMisses:32050 Refreshes:770 DataBusBusyCycles:1865840 LastCompletionCycle:2004860 QueueOccupancyPeak:2 BankOverlapActs:3188 StarvationForced:0} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1213062 WriteCycles:791798 Cycles:2004860 AccessBytes:64}",
	"ov0/frfcfs-qd8/plb0":          "{DRAM:{Reads:233658 Writes:233658 RowHits:439672 RowMisses:27644 Refreshes:564 DataBusBusyCycles:1869264 LastCompletionCycle:1468191 QueueOccupancyPeak:8 BankOverlapActs:15164 StarvationForced:0} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:824435 WriteCycles:643756 Cycles:1468191 AccessBytes:64}",
	"ov0/frfcfs-qd8/plb512":        "{DRAM:{Reads:233230 Writes:233230 RowHits:438974 RowMisses:27486 Refreshes:562 DataBusBusyCycles:1865840 LastCompletionCycle:1463206 QueueOccupancyPeak:8 BankOverlapActs:15196 StarvationForced:0} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:822195 WriteCycles:641011 Cycles:1463206 AccessBytes:64}",
	"ov1/inorder/plb0":             "{DRAM:{Reads:233658 Writes:233658 RowHits:431008 RowMisses:36308 Refreshes:1250 DataBusBusyCycles:1869264 LastCompletionCycle:3251302 QueueOccupancyPeak:0 BankOverlapActs:8452 StarvationForced:0} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:3251203 WriteCycles:2047552 Cycles:3251302 AccessBytes:64}",
	"ov1/inorder/plb512":           "{DRAM:{Reads:233230 Writes:233230 RowHits:430338 RowMisses:36122 Refreshes:1246 DataBusBusyCycles:1865840 LastCompletionCycle:3244219 QueueOccupancyPeak:0 BankOverlapActs:8242 StarvationForced:0} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:3244120 WriteCycles:2069209 Cycles:3244219 AccessBytes:64}",
	"ov1/frfcfs-qd2/plb0":          "{DRAM:{Reads:233658 Writes:233658 RowHits:432860 RowMisses:34456 Refreshes:752 DataBusBusyCycles:1869264 LastCompletionCycle:1957129 QueueOccupancyPeak:2 BankOverlapActs:5742 StarvationForced:902} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1957074 WriteCycles:1215102 Cycles:1957129 AccessBytes:64}",
	"ov1/frfcfs-qd2/plb512":        "{DRAM:{Reads:233230 Writes:233230 RowHits:432288 RowMisses:34172 Refreshes:750 DataBusBusyCycles:1865840 LastCompletionCycle:1952077 QueueOccupancyPeak:2 BankOverlapActs:5788 StarvationForced:1048} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1952022 WriteCycles:1227927 Cycles:1952077 AccessBytes:64}",
	"ov1/frfcfs-qd8/plb0":          "{DRAM:{Reads:233658 Writes:233658 RowHits:437578 RowMisses:29738 Refreshes:532 DataBusBusyCycles:1869264 LastCompletionCycle:1384520 QueueOccupancyPeak:8 BankOverlapActs:23426 StarvationForced:4110} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1384477 WriteCycles:932522 Cycles:1384520 AccessBytes:64}",
	"ov1/frfcfs-qd8/plb512":        "{DRAM:{Reads:233230 Writes:233230 RowHits:436900 RowMisses:29560 Refreshes:530 DataBusBusyCycles:1865840 LastCompletionCycle:1381215 QueueOccupancyPeak:8 BankOverlapActs:23312 StarvationForced:4174} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1381172 WriteCycles:938910 Cycles:1381215 AccessBytes:64}",
	"ov2/inorder/plb0":             "{DRAM:{Reads:233658 Writes:233658 RowHits:431066 RowMisses:36250 Refreshes:1228 DataBusBusyCycles:1869264 LastCompletionCycle:3197849 QueueOccupancyPeak:0 BankOverlapActs:10060 StarvationForced:0} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:6178520 WriteCycles:1991867 Cycles:3197849 AccessBytes:64}",
	"ov2/inorder/plb512":           "{DRAM:{Reads:233230 Writes:233230 RowHits:430500 RowMisses:35960 Refreshes:1224 DataBusBusyCycles:1865840 LastCompletionCycle:3187184 QueueOccupancyPeak:0 BankOverlapActs:10002 StarvationForced:0} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:5935027 WriteCycles:2012402 Cycles:3187184 AccessBytes:64}",
	"ov2/frfcfs-qd2/plb0":          "{DRAM:{Reads:233658 Writes:233658 RowHits:432974 RowMisses:34342 Refreshes:732 DataBusBusyCycles:1869264 LastCompletionCycle:1904608 QueueOccupancyPeak:2 BankOverlapActs:6976 StarvationForced:900} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:3696821 WriteCycles:1162343 Cycles:1904608 AccessBytes:64}",
	"ov2/frfcfs-qd2/plb512":        "{DRAM:{Reads:233230 Writes:233230 RowHits:432320 RowMisses:34140 Refreshes:728 DataBusBusyCycles:1865840 LastCompletionCycle:1897810 QueueOccupancyPeak:2 BankOverlapActs:7292 StarvationForced:1066} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:3549405 WriteCycles:1173070 Cycles:1897810 AccessBytes:64}",
	"ov2/frfcfs-qd8/plb0":          "{DRAM:{Reads:233658 Writes:233658 RowHits:437632 RowMisses:29684 Refreshes:518 DataBusBusyCycles:1869264 LastCompletionCycle:1349533 QueueOccupancyPeak:8 BankOverlapActs:23570 StarvationForced:4062} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:2588218 WriteCycles:898588 Cycles:1349533 AccessBytes:64}",
	"ov2/frfcfs-qd8/plb512":        "{DRAM:{Reads:233230 Writes:233230 RowHits:437022 RowMisses:29438 Refreshes:516 DataBusBusyCycles:1865840 LastCompletionCycle:1346072 QueueOccupancyPeak:8 BankOverlapActs:23486 StarvationForced:4180} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:2483425 WriteCycles:904169 Cycles:1346072 AccessBytes:64}",
	"ov3/inorder/plb0":             "{DRAM:{Reads:233658 Writes:233658 RowHits:431066 RowMisses:36250 Refreshes:1228 DataBusBusyCycles:1869264 LastCompletionCycle:3197849 QueueOccupancyPeak:0 BankOverlapActs:10060 StarvationForced:0} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:6178520 WriteCycles:1991867 Cycles:3197849 AccessBytes:64}",
	"ov3/inorder/plb512":           "{DRAM:{Reads:233230 Writes:233230 RowHits:430500 RowMisses:35960 Refreshes:1224 DataBusBusyCycles:1865840 LastCompletionCycle:3187184 QueueOccupancyPeak:0 BankOverlapActs:10002 StarvationForced:0} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:6233744 WriteCycles:2012402 Cycles:3187184 AccessBytes:64}",
	"ov3/frfcfs-qd2/plb0":          "{DRAM:{Reads:233658 Writes:233658 RowHits:432974 RowMisses:34342 Refreshes:732 DataBusBusyCycles:1869264 LastCompletionCycle:1904608 QueueOccupancyPeak:2 BankOverlapActs:6976 StarvationForced:900} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:3696821 WriteCycles:1162343 Cycles:1904608 AccessBytes:64}",
	"ov3/frfcfs-qd2/plb512":        "{DRAM:{Reads:233230 Writes:233230 RowHits:432320 RowMisses:34140 Refreshes:728 DataBusBusyCycles:1865840 LastCompletionCycle:1897810 QueueOccupancyPeak:2 BankOverlapActs:7292 StarvationForced:1066} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:3729130 WriteCycles:1173070 Cycles:1897810 AccessBytes:64}",
	"ov3/frfcfs-qd8/plb0":          "{DRAM:{Reads:233658 Writes:233658 RowHits:437632 RowMisses:29684 Refreshes:518 DataBusBusyCycles:1869264 LastCompletionCycle:1349533 QueueOccupancyPeak:8 BankOverlapActs:23570 StarvationForced:4062} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:2588218 WriteCycles:898588 Cycles:1349533 AccessBytes:64}",
	"ov3/frfcfs-qd8/plb512":        "{DRAM:{Reads:233230 Writes:233230 RowHits:437022 RowMisses:29438 Refreshes:516 DataBusBusyCycles:1865840 LastCompletionCycle:1346072 QueueOccupancyPeak:8 BankOverlapActs:23486 StarvationForced:4180} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:2607893 WriteCycles:904169 Cycles:1346072 AccessBytes:64}",
	"serialize/flat":               "{DRAM:{Reads:86540 Writes:86540 RowHits:160850 RowMisses:12230 Refreshes:474 DataBusBusyCycles:692320 LastCompletionCycle:1234734 QueueOccupancyPeak:0 BankOverlapActs:0 StarvationForced:0} PathReads:4327 PathWrites:4327 DeferredWrites:0 SkippedBuckets:0 ReadCycles:722119 WriteCycles:512615 Cycles:1234734 AccessBytes:64}",
	"serialize/rec":                "{DRAM:{Reads:233658 Writes:233658 RowHits:433062 RowMisses:34254 Refreshes:1286 DataBusBusyCycles:1869264 LastCompletionCycle:3347557 QueueOccupancyPeak:0 BankOverlapActs:0 StarvationForced:0} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1978325 WriteCycles:1369232 Cycles:3347557 AccessBytes:64}",
	"staged/rec-ov2-frfcfs-plb512": "{DRAM:{Reads:90816 Writes:233230 RowHits:275006 RowMisses:49040 Refreshes:418 DataBusBusyCycles:1296184 LastCompletionCycle:1090479 QueueOccupancyPeak:8 BankOverlapActs:39238 StarvationForced:1856} PathReads:17256 PathWrites:17256 DeferredWrites:17256 SkippedBuckets:71207 ReadCycles:1779139 WriteCycles:1618843 Cycles:1090479 AccessBytes:64}",
}

// chainTwoShardGoldens holds TestChainTwoShardDeterministic's constants,
// recorded once chain dependencies resolved at retirement.
var chainTwoShardGoldens = map[string]string{
	"flat4/inorder":        "{DRAM:{Reads:5568 Writes:5568 RowHits:11034 RowMisses:102 Refreshes:24 DataBusBusyCycles:44544 LastCompletionCycle:64884 QueueOccupancyPeak:0 BankOverlapActs:76 StarvationForced:0} PathReads:464 PathWrites:464 DeferredWrites:0 SkippedBuckets:0 ReadCycles:134092 WriteCycles:121954 Cycles:64884 AccessBytes:64}",
	"flat4/frfcfs":         "{DRAM:{Reads:5568 Writes:5568 RowHits:11096 RowMisses:40 Refreshes:8 DataBusBusyCycles:44544 LastCompletionCycle:24662 QueueOccupancyPeak:8 BankOverlapActs:30 StarvationForced:8} PathReads:464 PathWrites:464 DeferredWrites:0 SkippedBuckets:0 ReadCycles:51678 WriteCycles:45584 Cycles:24662 AccessBytes:64}",
	"rec1-plb-ov2/inorder": "{DRAM:{Reads:14965 Writes:14965 RowHits:29702 RowMisses:228 Refreshes:74 DataBusBusyCycles:119720 LastCompletionCycle:193323 QueueOccupancyPeak:0 BankOverlapActs:148 StarvationForced:0} PathReads:1181 PathWrites:1181 DeferredWrites:0 SkippedBuckets:0 ReadCycles:330108 WriteCycles:151856 Cycles:193323 AccessBytes:64}",
	"rec1-plb-ov2/frfcfs":  "{DRAM:{Reads:14965 Writes:14965 RowHits:29840 RowMisses:90 Refreshes:28 DataBusBusyCycles:119720 LastCompletionCycle:77775 QueueOccupancyPeak:8 BankOverlapActs:59 StarvationForced:25} PathReads:1181 PathWrites:1181 DeferredWrites:0 SkippedBuckets:0 ReadCycles:134108 WriteCycles:60999 Cycles:77775 AccessBytes:64}",
	"rec2-plb-ov0/inorder": "{DRAM:{Reads:11040 Writes:11040 RowHits:21864 RowMisses:216 Refreshes:52 DataBusBusyCycles:88320 LastCompletionCycle:138450 QueueOccupancyPeak:0 BankOverlapActs:139 StarvationForced:0} PathReads:920 PathWrites:920 DeferredWrites:0 SkippedBuckets:0 ReadCycles:150412 WriteCycles:124159 Cycles:138450 AccessBytes:64}",
	"rec2-plb-ov0/frfcfs":  "{DRAM:{Reads:11040 Writes:11040 RowHits:21992 RowMisses:88 Refreshes:20 DataBusBusyCycles:88320 LastCompletionCycle:54820 QueueOccupancyPeak:8 BankOverlapActs:63 StarvationForced:17} PathReads:920 PathWrites:920 DeferredWrites:0 SkippedBuckets:0 ReadCycles:60207 WriteCycles:48397 Cycles:54820 AccessBytes:64}",
	"rec2-plb-ov2/inorder": "{DRAM:{Reads:11040 Writes:11040 RowHits:21864 RowMisses:216 Refreshes:52 DataBusBusyCycles:88320 LastCompletionCycle:138524 QueueOccupancyPeak:0 BankOverlapActs:144 StarvationForced:0} PathReads:920 PathWrites:920 DeferredWrites:0 SkippedBuckets:0 ReadCycles:491984 WriteCycles:383666 Cycles:138524 AccessBytes:64}",
	"rec2-plb-ov2/frfcfs":  "{DRAM:{Reads:11040 Writes:11040 RowHits:21992 RowMisses:88 Refreshes:20 DataBusBusyCycles:88320 LastCompletionCycle:54715 QueueOccupancyPeak:8 BankOverlapActs:62 StarvationForced:28} PathReads:920 PathWrites:920 DeferredWrites:0 SkippedBuckets:0 ReadCycles:178128 WriteCycles:110510 Cycles:54715 AccessBytes:64}",
	"serialize2/inorder":   "{DRAM:{Reads:6496 Writes:6496 RowHits:12926 RowMisses:66 Refreshes:32 DataBusBusyCycles:51968 LastCompletionCycle:83999 QueueOccupancyPeak:0 BankOverlapActs:0 StarvationForced:0} PathReads:464 PathWrites:464 DeferredWrites:0 SkippedBuckets:0 ReadCycles:47439 WriteCycles:36560 Cycles:83999 AccessBytes:64}",
	"serialize2/frfcfs":    "{DRAM:{Reads:6496 Writes:6496 RowHits:12964 RowMisses:28 Refreshes:12 DataBusBusyCycles:51968 LastCompletionCycle:35513 QueueOccupancyPeak:7 BankOverlapActs:0 StarvationForced:0} PathReads:464 PathWrites:464 DeferredWrites:0 SkippedBuckets:0 ReadCycles:19149 WriteCycles:16364 Cycles:35513 AccessBytes:64}",
}
