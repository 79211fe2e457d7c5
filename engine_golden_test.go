package pathoram

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The engine goldens pin "same results" across a change to how engines are
// built: one fixed seeded op stream runs on a bare engine (New) and on a
// 2-shard Open of each variant below, and everything an engine can show
// for it — the paths it touched, what it returned, its counters, its
// modeled time, its tree files — must equal the constants recorded at the
// commit before the change. Re-record with
//
//	go test -run TestEngineGolden -record-engine-golden . | grep '^	"' > body
//
// and paste the lines over the body of engineGoldens; a change that means
// to move one says which and why.
var recordEngineGolden = flag.Bool("record-engine-golden", false,
	"print the engineGoldens table body instead of comparing against it")

// engineGolden is what one run leaves behind, each view in text form.
type engineGolden struct {
	// trace digests the OnPathAccess (level, leaf) sequence, one digest
	// per shard in shard order.
	trace string
	// out digests every returned payload, found flag, group address and
	// background-step outcome, in op order.
	out string
	// stats is the closing Stats, field for field (%+v).
	stats string
	// onChip is OnChipBytes.
	onChip uint64
	// timing is the closing TimingStats (%+v), "untimed" under BackendMem.
	timing string
	// files digests the closed tree files by name and content, "" when
	// nothing persists.
	files string
}

// goldenKey is a fixed processor secret, so ciphertext is a constant.
var goldenKey = []byte("engine-golden-k!")

// engineGoldenVariants are the design points the goldens cover. Each spec
// is built fresh per run (dir is a fresh directory, used by the file
// variants only).
var engineGoldenVariants = []struct {
	name string
	spec func(dir string) Spec
}{
	{"plain", func(string) Spec { return Spec{BlockSize: 16, Encryption: EncryptNone} }},
	{"meta", func(string) Spec { return Spec{} }},
	{"super", func(string) Spec { return Spec{BlockSize: 16, Encryption: EncryptNone, SuperBlockSize: 4} }},
	// Z=2 at 50% with four to six blocks of stash headroom: background
	// eviction runs, so DummyAccesses and MaxDummyRun are non-zero.
	{"tight", func(string) Spec {
		return Spec{BlockSize: 16, Encryption: EncryptNone, Z: 2, Utilization: 0.75, StashCapacity: 24}
	}},
	{"tight-async", func(string) Spec {
		return Spec{BlockSize: 16, Encryption: EncryptNone, Z: 2, Utilization: 0.75, StashCapacity: 24,
			AsyncEviction: true, MaxDeferredWriteBacks: 4}
	}},
	{"ct", func(string) Spec { return Spec{BlockSize: 16, Encryption: EncryptNone, ConstantTimeStash: true} }},
	{"dram", func(string) Spec { return Spec{BlockSize: 16, Encryption: EncryptNone, Backend: BackendDRAM} }},
	{"dram-frfcfs", func(string) Spec {
		return Spec{BlockSize: 16, Encryption: EncryptNone, Backend: BackendDRAM, DRAMSched: MemSchedFRFCFS}
	}},
	{"dram-async", func(string) Spec {
		return Spec{BlockSize: 16, Encryption: EncryptNone, Backend: BackendDRAM, AsyncEviction: true}
	}},
	{"dram-serialize", func(string) Spec {
		return Spec{BlockSize: 16, Encryption: EncryptNone, Backend: BackendDRAM, DRAMSerialize: true}
	}},
	{"file-counter", func(dir string) Spec {
		return Spec{BlockSize: 16, Key: goldenKey, Backend: BackendFile, Dir: dir}
	}},
	{"counter-integrity", func(string) Spec { return Spec{BlockSize: 16, Key: goldenKey, Integrity: true} }},
	// Plaintext at rest: the tree files hold the bare serialized buckets.
	{"file-plain", func(dir string) Spec {
		return Spec{BlockSize: 16, Encryption: EncryptNone, Backend: BackendFile, Dir: dir}
	}},
	{"rec-plb", func(string) Spec {
		return Spec{BlockSize: 16, Encryption: EncryptNone,
			PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 64, PLBBytes: 512}
	}},
	{"rec-tight", func(string) Spec {
		return Spec{BlockSize: 16, Encryption: EncryptNone, Z: 2, PosZ: 2, Utilization: 0.75, StashCapacity: 24,
			PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 64}
	}},
	{"rec-plb-dram-overlap", func(string) Spec {
		return Spec{BlockSize: 16, Encryption: EncryptNone,
			PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 64, PLBBytes: 512,
			Backend: BackendDRAM, Overlap: 2}
	}},
	{"rec-file-counter", func(dir string) Spec {
		return Spec{BlockSize: 16, Key: goldenKey, Backend: BackendFile, Dir: dir,
			PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 64}
	}},
	{"rec-file-plain-wal-async", func(dir string) Spec {
		return Spec{BlockSize: 16, Encryption: EncryptNone, Backend: BackendFile, Dir: dir,
			WAL: true, WALDepth: 8, AsyncEviction: true,
			PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 64}
	}},
	// A real chain on the in-order bus, and one on a two-deep FR-FCFS
	// window: at depth 2 a burst's admission waits for the completion two
	// issues back (TBURST+CL = 14 cycles > 2·TCCD), so the window-admission
	// raise binds on nearly every burst of a path.
	{"rec-dram", func(string) Spec {
		return Spec{BlockSize: 16, Encryption: EncryptNone,
			PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 64, Backend: BackendDRAM}
	}},
	{"rec-frfcfs-qd2", func(string) Spec {
		return Spec{BlockSize: 16, Encryption: EncryptNone,
			PosMap: PosMapRecursive, PosBlockSize: 16, OnChipPosMapMax: 64,
			Backend: BackendDRAM, DRAMSched: MemSchedFRFCFS, DRAMQueueDepth: 2}
	}},
}

// digest accumulates one view of a run.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digest) bytes(p []byte) {
	d.u64(uint64(len(p)))
	d.h.Write(p)
}

func (d *digest) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digest) String() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:8]) }

// runEngineGolden drives the fixed op stream through one client of the
// variant and returns what it left behind.
func runEngineGolden(t *testing.T, spec Spec, shards int) engineGolden {
	t.Helper()
	const blocks, ops, batch = 1024, 2500, 8
	spec.Blocks = blocks
	spec.Shards = shards
	spec.Rand = rand.New(rand.NewSource(23))
	traces := make([]*digest, shards)
	for i := range traces {
		traces[i] = newDigest()
	}
	spec.OnPathAccess = func(shard, level int, leaf uint64) { traces[shard].u64(uint64(level), leaf) }

	var c Client
	var err error
	if shards > 1 {
		c, err = Open(spec)
	} else {
		c, err = New(spec)
	}
	if err != nil {
		t.Fatal(err)
	}

	out := newDigest()
	rng := rand.New(rand.NewSource(29))
	payload := func() []byte {
		p := make([]byte, spec.BlockSize)
		rng.Read(p)
		return p
	}
	addr := func() uint64 { return rng.Uint64() % blocks }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, spec.BlockSize)
	addrs := make([]uint64, batch)
	data := make([][]byte, batch)
	// On an untimed sharded async client a manual step returns whichever
	// shard's write-back the idle pumps have not got to yet, and its
	// evictions would draw leaves at a wall-clock-dependent point; only the
	// eviction-free form, unrecorded, is replayable.
	pumpEvicts := !(shards > 1 && spec.AsyncEviction)
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(16); {
		case k < 4:
			must(c.Write(addr(), payload()))
		case k < 6:
			got, err := c.Read(addr())
			must(err)
			out.bytes(got)
		case k < 8:
			found, err := c.ReadInto(addr(), dst)
			must(err)
			out.flag(found)
			out.bytes(dst)
		case k < 10 && spec.BlockSize == 0:
			must(c.Write(addr(), nil)) // metadata-only trees have nothing to update
		case k < 10:
			must(c.Update(addr(), func(d []byte) {
				for i := range d {
					d[i]++
				}
			}))
		case k < 12:
			a := addr()
			got, found, group, err := c.Load(a)
			must(err)
			out.flag(found)
			out.bytes(got)
			if !found {
				got = make([]byte, spec.BlockSize)
			}
			must(c.Store(a, got))
			for _, g := range group {
				out.u64(g.Addr)
				out.bytes(g.Data)
				must(c.Store(g.Addr, g.Data))
			}
		case k < 13:
			must(c.PaddingAccess())
		case k < 14:
			w, err := c.StepBackground(pumpEvicts)
			must(err)
			if pumpEvicts {
				out.u64(uint64(w))
			}
		case k < 15:
			for j := range addrs {
				addrs[j] = addr()
			}
			got, err := c.ReadBatch(addrs)
			must(err)
			for _, g := range got {
				out.bytes(g)
			}
		default:
			for j := range addrs {
				addrs[j], data[j] = addr(), payload()
			}
			must(c.WriteBatch(addrs, data))
		}
	}
	must(c.Flush())

	g := engineGolden{out: out.String(), onChip: c.OnChipBytes(), timing: "untimed"}
	g.stats = fmt.Sprintf("%+v", c.Stats())
	if ts, ok := c.TimingStats(); ok {
		g.timing = fmt.Sprintf("%+v", ts)
	}
	must(c.Close())
	var parts []string
	for _, d := range traces {
		parts = append(parts, d.String())
	}
	g.trace = strings.Join(parts, " ")
	if spec.Dir != "" {
		names, err := filepath.Glob(filepath.Join(spec.Dir, "*"))
		must(err)
		sort.Strings(names)
		files := newDigest()
		for _, name := range names {
			content, err := os.ReadFile(name)
			must(err)
			files.bytes([]byte(filepath.Base(name)))
			files.bytes(content)
		}
		g.files = files.String()
	}
	return g
}

// TestEngineGolden replays every variant, bare and behind two shards,
// against the recorded constants.
func TestEngineGolden(t *testing.T) {
	for _, v := range engineGoldenVariants {
		for _, mode := range []struct {
			name   string
			shards int
		}{{"bare", 1}, {"open2", 2}} {
			key := v.name + "/" + mode.name
			t.Run(key, func(t *testing.T) {
				got := runEngineGolden(t, v.spec(t.TempDir()), mode.shards)
				if *recordEngineGolden {
					fmt.Printf("\t%q: {\n\t\ttrace: %q, out: %q, onChip: %d, files: %q,\n\t\tstats:  %q,\n\t\ttiming: %q,\n\t},\n",
						key, got.trace, got.out, got.onChip, got.files, got.stats, got.timing)
					return
				}
				want, ok := engineGoldens[key]
				if !ok {
					t.Fatalf("no golden recorded for %s", key)
				}
				if got != want {
					t.Errorf("engine results moved:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// engineGoldens holds the constants, recorded at aca03de (the parent of
// the one-engine change). The rec-dram and rec-frfcfs-qd2 cases, and
// rec-tight's MaxDummyRun and IdleEvictions (masked until then), were
// recorded at 72923c8, the parent of the row-run replay, after 60 runs at
// GOMAXPROCS 1/2/4 and 6 under -race held them still. The open2 timing of
// dram-serialize, rec-plb-dram-overlap, rec-dram and rec-frfcfs-qd2,
// masked until chain dependencies resolved in the bus at retirement, was
// recorded with that change after 60 runs at GOMAXPROCS 1/2/4 and 24
// under -race held it still. The file-plain and rec-file-plain-wal-async
// cases were recorded at 6ea5fe6, the parent of the change that moved
// plaintext-at-rest trees onto the encrypting store under an identity
// scheme, after runs at GOMAXPROCS 1/2/3 held them still. The open2 timing
// of dram-async, masked while an idle pump completed a timed shard's
// write-backs at wall-clock moments, was recorded with the change that
// left timed shards without a pump (their write buffers drain when full,
// at Flush and at snapshots), after 30 runs at GOMAXPROCS 1/2/4 and 6
// under -race held it still.
var engineGoldens = map[string]engineGolden{
	"plain/bare": {
		trace: "0435ac0c94299a11", out: "60ca52d48750c82e", onChip: 9696, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:5 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"plain/open2": {
		trace: "cdfddf60f2235aad e67a96b5ce3efc5a", out: "60ca52d48750c82e", onChip: 15296, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:4 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"meta/bare": {
		trace: "965f831d2a90d9dc", out: "dc04b47ced8787e6", onChip: 6496, files: "",
		stats:  "{RealAccesses:4200 DummyAccesses:0 PaddingAccesses:138 Stores:302 StashPeak:8 BlocksInORAM:927 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"meta/open2": {
		trace: "d1b41b4b1705b06e c690db7c5a2cef1b", out: "dc04b47ced8787e6", onChip: 8896, files: "",
		stats:  "{RealAccesses:4200 DummyAccesses:0 PaddingAccesses:138 Stores:302 StashPeak:6 BlocksInORAM:927 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"super/bare": {
		trace: "29b2ec7b346ca9d8", out: "b295a15cabf55d44", onChip: 6624, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:57 PaddingAccesses:176 Stores:862 StashPeak:174 BlocksInORAM:915 MaxDummyRun:4 DeferredWriteBacks:0 IdleEvictions:47 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"super/open2": {
		trace: "131d685469fb6903 934ffdcc0a367949", out: "a66f95ed3903afa8", onChip: 12224, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:861 StashPeak:91 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"tight/bare": {
		trace: "04dc630bdb85f811", out: "c915691b9ed3bbab", onChip: 4768, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:108 PaddingAccesses:176 Stores:315 StashPeak:5 BlocksInORAM:915 MaxDummyRun:9 DeferredWriteBacks:0 IdleEvictions:16 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"tight/open2": {
		trace: "e3a069b3f6d7397e 982bbfeeb64876ad", out: "c91504dd498df2ac", onChip: 5440, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:41 PaddingAccesses:176 Stores:315 StashPeak:7 BlocksInORAM:915 MaxDummyRun:5 DeferredWriteBacks:0 IdleEvictions:18 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"tight-async/bare": {
		trace: "8e3db149105b761d", out: "006ec18777d3f559", onChip: 4768, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:192 PaddingAccesses:176 Stores:315 StashPeak:5 BlocksInORAM:915 MaxDummyRun:13 DeferredWriteBacks:4519 IdleEvictions:0 PendingWriteBackPeak:4 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"tight-async/open2": {
		trace: "a84bc1d5c5ded82f 48147ce492ed1672", out: "13b3c1941d354305", onChip: 5440, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:38 PaddingAccesses:176 Stores:315 StashPeak:7 BlocksInORAM:915 MaxDummyRun:14 DeferredWriteBacks:4365 IdleEvictions:0 PendingWriteBackPeak:4 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"ct/bare": {
		trace: "0435ac0c94299a11", out: "60ca52d48750c82e", onChip: 9696, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:5 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"ct/open2": {
		trace: "cdfddf60f2235aad e67a96b5ce3efc5a", out: "60ca52d48750c82e", onChip: 15296, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:4 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"dram/bare": {
		trace: "0435ac0c94299a11", out: "60ca52d48750c82e", onChip: 9696, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:5 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "{DRAM:{Reads:86540 Writes:86540 RowHits:160850 RowMisses:12230 Refreshes:474 DataBusBusyCycles:692320 LastCompletionCycle:1234734 QueueOccupancyPeak:0 BankOverlapActs:0 StarvationForced:0} PathReads:4327 PathWrites:4327 DeferredWrites:0 SkippedBuckets:0 ReadCycles:722119 WriteCycles:512615 Cycles:1234734 AccessBytes:64}",
	},
	"dram/open2": {
		trace: "cdfddf60f2235aad e67a96b5ce3efc5a", out: "60ca52d48750c82e", onChip: 15296, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:4 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "{DRAM:{Reads:77886 Writes:77886 RowHits:139494 RowMisses:16278 Refreshes:420 DataBusBusyCycles:623088 LastCompletionCycle:1093744 QueueOccupancyPeak:0 BankOverlapActs:2168 StarvationForced:0} PathReads:4327 PathWrites:4327 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1188660 WriteCycles:983918 Cycles:1093744 AccessBytes:64}",
	},
	"dram-frfcfs/bare": {
		trace: "0435ac0c94299a11", out: "60ca52d48750c82e", onChip: 9696, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:5 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "{DRAM:{Reads:86540 Writes:86540 RowHits:163448 RowMisses:9632 Refreshes:188 DataBusBusyCycles:692320 LastCompletionCycle:489149 QueueOccupancyPeak:8 BankOverlapActs:7308 StarvationForced:0} PathReads:4327 PathWrites:4327 DeferredWrites:0 SkippedBuckets:0 ReadCycles:254857 WriteCycles:234292 Cycles:489149 AccessBytes:64}",
	},
	"dram-frfcfs/open2": {
		trace: "cdfddf60f2235aad e67a96b5ce3efc5a", out: "60ca52d48750c82e", onChip: 15296, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:4 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "{DRAM:{Reads:77886 Writes:77886 RowHits:141864 RowMisses:13908 Refreshes:168 DataBusBusyCycles:623088 LastCompletionCycle:440814 QueueOccupancyPeak:8 BankOverlapActs:9180 StarvationForced:5826} PathReads:4327 PathWrites:4327 DeferredWrites:0 SkippedBuckets:0 ReadCycles:480928 WriteCycles:394789 Cycles:440814 AccessBytes:64}",
	},
	"dram-async/bare": {
		trace: "0435ac0c94299a11", out: "006ec18777d3f559", onChip: 9696, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:5 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:4327 IdleEvictions:0 PendingWriteBackPeak:8 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "{DRAM:{Reads:48320 Writes:86540 RowHits:116340 RowMisses:18520 Refreshes:394 DataBusBusyCycles:539440 LastCompletionCycle:1026250 QueueOccupancyPeak:0 BankOverlapActs:0 StarvationForced:0} PathReads:4327 PathWrites:4327 DeferredWrites:4327 SkippedBuckets:19110 ReadCycles:450949 WriteCycles:575301 Cycles:1026250 AccessBytes:64}",
	},
	"dram-async/open2": {
		trace: "cdfddf60f2235aad e67a96b5ce3efc5a", out: "13b3c1941d354305", onChip: 15296, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:4 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:4327 IdleEvictions:0 PendingWriteBackPeak:8 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "{DRAM:{Reads:40244 Writes:77886 RowHits:96886 RowMisses:21244 Refreshes:336 DataBusBusyCycles:472520 LastCompletionCycle:875075 QueueOccupancyPeak:0 BankOverlapActs:2696 StarvationForced:0} PathReads:4327 PathWrites:4327 DeferredWrites:4327 SkippedBuckets:18821 ReadCycles:800648 WriteCycles:936486 Cycles:875075 AccessBytes:64}",
	},
	"dram-serialize/bare": {
		trace: "0435ac0c94299a11", out: "60ca52d48750c82e", onChip: 9696, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:5 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "{DRAM:{Reads:86540 Writes:86540 RowHits:160850 RowMisses:12230 Refreshes:474 DataBusBusyCycles:692320 LastCompletionCycle:1234734 QueueOccupancyPeak:0 BankOverlapActs:0 StarvationForced:0} PathReads:4327 PathWrites:4327 DeferredWrites:0 SkippedBuckets:0 ReadCycles:722119 WriteCycles:512615 Cycles:1234734 AccessBytes:64}",
	},
	"dram-serialize/open2": {
		trace: "cdfddf60f2235aad e67a96b5ce3efc5a", out: "60ca52d48750c82e", onChip: 15296, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:4 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "{DRAM:{Reads:77886 Writes:77886 RowHits:139420 RowMisses:16352 Refreshes:444 DataBusBusyCycles:623088 LastCompletionCycle:1156293 QueueOccupancyPeak:0 BankOverlapActs:0 StarvationForced:0} PathReads:4327 PathWrites:4327 DeferredWrites:0 SkippedBuckets:0 ReadCycles:662168 WriteCycles:494125 Cycles:1156293 AccessBytes:64}",
	},
	"file-counter/bare": {
		trace: "0435ac0c94299a11", out: "60ca52d48750c82e", onChip: 9696, files: "5268c4ccaf568730",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:5 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"file-counter/open2": {
		trace: "cdfddf60f2235aad e67a96b5ce3efc5a", out: "60ca52d48750c82e", onChip: 15296, files: "42440aa3051bf967",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:4 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"counter-integrity/bare": {
		trace: "0435ac0c94299a11", out: "60ca52d48750c82e", onChip: 9696, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:5 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"counter-integrity/open2": {
		trace: "cdfddf60f2235aad e67a96b5ce3efc5a", out: "60ca52d48750c82e", onChip: 15296, files: "",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:4 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"file-plain/bare": {
		trace: "0435ac0c94299a11", out: "60ca52d48750c82e", onChip: 9696, files: "581ee260a18706fc",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:5 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"file-plain/open2": {
		trace: "cdfddf60f2235aad e67a96b5ce3efc5a", out: "60ca52d48750c82e", onChip: 15296, files: "4766ee24b5b3d4fe",
		stats:  "{RealAccesses:4151 DummyAccesses:0 PaddingAccesses:176 Stores:315 StashPeak:4 BlocksInORAM:915 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:0 ChainSamples:0}",
		timing: "untimed",
	},
	"rec-plb/bare": {
		trace: "05ae54c286a75e22", out: "60ca52d48750c82e", onChip: 22752, files: "",
		stats:  "{RealAccesses:16552 DummyAccesses:0 PaddingAccesses:704 Stores:315 StashPeak:6 BlocksInORAM:1251 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:540 PLBMisses:11910 PLBWriteBacks:491 ChainLevels:16552 ChainSamples:4151}",
		timing: "untimed",
	},
	"rec-plb/open2": {
		trace: "6fc65f7395e9d213 256652349de52cb1", out: "60ca52d48750c82e", onChip: 45440, files: "",
		stats:  "{RealAccesses:16351 DummyAccesses:0 PaddingAccesses:704 Stores:315 StashPeak:5 BlocksInORAM:1251 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:1209 PLBMisses:11231 PLBWriteBacks:969 ChainLevels:16349 ChainSamples:4151}",
		timing: "untimed",
	},
	"rec-tight/bare": {
		trace: "53fb0b003a39c524", out: "51d8b96024732467", onChip: 2752, files: "",
		stats:  "{RealAccesses:16604 DummyAccesses:644 PaddingAccesses:704 Stores:315 StashPeak:9 BlocksInORAM:1251 MaxDummyRun:11 DeferredWriteBacks:0 IdleEvictions:17 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:16604 ChainSamples:4151}",
		timing: "untimed",
	},
	"rec-tight/open2": {
		trace: "200f7941af997e06 1a87097cf5fef1bc", out: "41fb665f2b4dda39", onChip: 5440, files: "",
		stats:  "{RealAccesses:16604 DummyAccesses:252 PaddingAccesses:704 Stores:315 StashPeak:8 BlocksInORAM:1251 MaxDummyRun:12 DeferredWriteBacks:0 IdleEvictions:23 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:16604 ChainSamples:4151}",
		timing: "untimed",
	},
	"rec-plb-dram-overlap/bare": {
		trace: "05ae54c286a75e22", out: "60ca52d48750c82e", onChip: 22752, files: "",
		stats:  "{RealAccesses:16552 DummyAccesses:0 PaddingAccesses:704 Stores:315 StashPeak:6 BlocksInORAM:1251 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:540 PLBMisses:11910 PLBWriteBacks:491 ChainLevels:16552 ChainSamples:4151}",
		timing: "{DRAM:{Reads:233230 Writes:233230 RowHits:430500 RowMisses:35960 Refreshes:1224 DataBusBusyCycles:1865840 LastCompletionCycle:3187184 QueueOccupancyPeak:0 BankOverlapActs:10002 StarvationForced:0} PathReads:17256 PathWrites:17256 DeferredWrites:0 SkippedBuckets:0 ReadCycles:5935027 WriteCycles:2012402 Cycles:3187184 AccessBytes:64}",
	},
	"rec-plb-dram-overlap/open2": {
		trace: "6fc65f7395e9d213 256652349de52cb1", out: "60ca52d48750c82e", onChip: 45440, files: "",
		stats:  "{RealAccesses:16351 DummyAccesses:0 PaddingAccesses:704 Stores:315 StashPeak:5 BlocksInORAM:1251 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:1209 PLBMisses:11231 PLBWriteBacks:969 ChainLevels:16349 ChainSamples:4151}",
		timing: "{DRAM:{Reads:197468 Writes:197468 RowHits:362084 RowMisses:32852 Refreshes:1004 DataBusBusyCycles:1579744 LastCompletionCycle:2613158 QueueOccupancyPeak:0 BankOverlapActs:15790 StarvationForced:0} PathReads:17055 PathWrites:17055 DeferredWrites:0 SkippedBuckets:0 ReadCycles:9443917 WriteCycles:5148209 Cycles:2613158 AccessBytes:64}",
	},
	"rec-file-counter/bare": {
		trace: "f73fa9983c21871c", out: "60ca52d48750c82e", onChip: 22464, files: "7baf0213b726d568",
		stats:  "{RealAccesses:16604 DummyAccesses:0 PaddingAccesses:704 Stores:315 StashPeak:9 BlocksInORAM:1251 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:16604 ChainSamples:4151}",
		timing: "untimed",
	},
	"rec-file-counter/open2": {
		trace: "36a94f09dffe540a 05270bb86ba567c2", out: "60ca52d48750c82e", onChip: 44864, files: "249aa4d171d4244a",
		stats:  "{RealAccesses:16604 DummyAccesses:0 PaddingAccesses:704 Stores:315 StashPeak:6 BlocksInORAM:1251 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:16604 ChainSamples:4151}",
		timing: "untimed",
	},
	"rec-file-plain-wal-async/bare": {
		trace: "f73fa9983c21871c", out: "006ec18777d3f559", onChip: 22464, files: "9e99a088106f9419",
		stats:  "{RealAccesses:16604 DummyAccesses:0 PaddingAccesses:704 Stores:315 StashPeak:9 BlocksInORAM:1251 MaxDummyRun:0 DeferredWriteBacks:17308 IdleEvictions:0 PendingWriteBackPeak:8 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:16604 ChainSamples:4151}",
		timing: "untimed",
	},
	"rec-file-plain-wal-async/open2": {
		trace: "36a94f09dffe540a 05270bb86ba567c2", out: "13b3c1941d354305", onChip: 44864, files: "9b3254661a0d722a",
		stats:  "{RealAccesses:16604 DummyAccesses:0 PaddingAccesses:704 Stores:315 StashPeak:6 BlocksInORAM:1251 MaxDummyRun:0 DeferredWriteBacks:17308 IdleEvictions:0 PendingWriteBackPeak:8 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:16604 ChainSamples:4151}",
		timing: "untimed",
	},
	"rec-dram/bare": {
		trace: "f73fa9983c21871c", out: "60ca52d48750c82e", onChip: 22464, files: "",
		stats:  "{RealAccesses:16604 DummyAccesses:0 PaddingAccesses:704 Stores:315 StashPeak:9 BlocksInORAM:1251 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:16604 ChainSamples:4151}",
		timing: "{DRAM:{Reads:233658 Writes:233658 RowHits:433062 RowMisses:34254 Refreshes:1286 DataBusBusyCycles:1869264 LastCompletionCycle:3347557 QueueOccupancyPeak:0 BankOverlapActs:0 StarvationForced:0} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1978325 WriteCycles:1369232 Cycles:3347557 AccessBytes:64}",
	},
	"rec-dram/open2": {
		trace: "36a94f09dffe540a 05270bb86ba567c2", out: "60ca52d48750c82e", onChip: 44864, files: "",
		stats:  "{RealAccesses:16604 DummyAccesses:0 PaddingAccesses:704 Stores:315 StashPeak:6 BlocksInORAM:1251 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:16604 ChainSamples:4151}",
		timing: "{DRAM:{Reads:199042 Writes:199042 RowHits:369990 RowMisses:28094 Refreshes:974 DataBusBusyCycles:1592336 LastCompletionCycle:2536266 QueueOccupancyPeak:0 BankOverlapActs:13206 StarvationForced:0} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:2780895 WriteCycles:2255222 Cycles:2536266 AccessBytes:64}",
	},
	"rec-frfcfs-qd2/bare": {
		trace: "f73fa9983c21871c", out: "60ca52d48750c82e", onChip: 22464, files: "",
		stats:  "{RealAccesses:16604 DummyAccesses:0 PaddingAccesses:704 Stores:315 StashPeak:9 BlocksInORAM:1251 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:16604 ChainSamples:4151}",
		timing: "{DRAM:{Reads:233658 Writes:233658 RowHits:434950 RowMisses:32366 Refreshes:772 DataBusBusyCycles:1869264 LastCompletionCycle:2011810 QueueOccupancyPeak:2 BankOverlapActs:3204 StarvationForced:0} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1215861 WriteCycles:795949 Cycles:2011810 AccessBytes:64}",
	},
	"rec-frfcfs-qd2/open2": {
		trace: "36a94f09dffe540a 05270bb86ba567c2", out: "60ca52d48750c82e", onChip: 44864, files: "",
		stats:  "{RealAccesses:16604 DummyAccesses:0 PaddingAccesses:704 Stores:315 StashPeak:6 BlocksInORAM:1251 MaxDummyRun:0 DeferredWriteBacks:0 IdleEvictions:0 PendingWriteBackPeak:0 PLBHits:0 PLBMisses:0 PLBWriteBacks:0 ChainLevels:16604 ChainSamples:4151}",
		timing: "{DRAM:{Reads:199042 Writes:199042 RowHits:372550 RowMisses:25534 Refreshes:598 DataBusBusyCycles:1592336 LastCompletionCycle:1559745 QueueOccupancyPeak:2 BankOverlapActs:12250 StarvationForced:4722} PathReads:17308 PathWrites:17308 DeferredWrites:0 SkippedBuckets:0 ReadCycles:1791668 WriteCycles:1305448 Cycles:1559745 AccessBytes:64}",
	},
}
