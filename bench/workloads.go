package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"

	pathoram "repro"
)

// Geometry every workload shares (ISSUE 11): 65536 blocks of 64 bytes, Z,
// utilization and stash at the library defaults, half the ops writes.
const (
	benchBlockSize = 64
	benchZ         = 3
	prefillBatch   = 1024
)

// benchBlocks is a variable only so that -smoke and the tests can shrink
// every tree at once.
var benchBlocks uint64 = 65536

// leafLevel is the depth pathoram gives a tree of that many blocks at the
// default Z = 3 and utilization 0.5.
func leafLevel(blocks uint64) int {
	l := 0
	for benchZ*(uint64(1)<<(l+1)-1) < 2*blocks {
		l++
	}
	return l
}

// workload is one named row of the benchmark. The why strings are the ones
// BENCHMARK.json carries; a test keeps the two in step.
type workload struct {
	name string
	why  string
	// hostBound rows are measured by a full run and by -workload, but
	// BENCHMARK.json does not declare them: their numbers follow the
	// sandbox's disk more than the program, so no bound can hold them.
	hostBound bool
	// layers lists the modules this workload's stack crosses; a traced run
	// measures exactly these layers from outside (layers.go).
	layers []string

	shards  int
	clients int  // closed-loop client goroutines (and HTTP connections)
	tenants int  // > 0: served through internal/service over a socket
	batch   int  // addresses per submission
	zipf    bool // zipf(1.2) addresses instead of uniform
	file    bool // tree files on disk: the instance gets a fresh directory
	async   bool // deferred write-back: the window closes with a Flush
	seeded  bool // Spec.Rand from the seed: modeled counts must repeat exactly
	spec    func(seed int64, dir string) pathoram.Spec
	// bare, on ladder rungs below the scheduler, builds a single-threaded
	// pathoram.New tree instead of Open(spec).
	bare     func(dir string) pathoram.Config
	metaOnly bool // BlockSize 0: no payloads to fill or verify
}

func (w *workload) blockSize() int {
	if w.metaOnly {
		return 0
	}
	return benchBlockSize
}

// writersPerTree is how many clients share one tree, which is what address
// ownership divides: HTTP clients each own a whole tenant.
func (w *workload) writersPerTree() int {
	if w.tenants > 0 {
		return 1
	}
	return w.clients
}

func flatEncSpec(int64, string) pathoram.Spec {
	return pathoram.Spec{
		Blocks: benchBlocks, BlockSize: benchBlockSize,
		Partition:  pathoram.PartitionStripe,
		Encryption: pathoram.EncryptCounter,
	}
}

func walAsyncSpec(seed int64, dir string) pathoram.Spec {
	s := flatEncSpec(seed, dir)
	s.Backend = pathoram.BackendFile
	s.Dir = dir
	s.WAL = true
	s.WALDepth = 256
	s.AsyncEviction = true
	return s
}

func dramRecSpec(seed int64, _ string) pathoram.Spec {
	return pathoram.Spec{
		Blocks: benchBlocks, BlockSize: benchBlockSize,
		PosMap:          pathoram.PosMapRecursive,
		OnChipPosMapMax: 2048,
		PLBBytes:        8192,
		Overlap:         2,
		Backend:         pathoram.BackendDRAM,
		DRAMSched:       pathoram.MemSchedFRFCFS,
		DRAMChannels:    2,
		Encryption:      pathoram.EncryptNone,
		Rand:            rand.New(rand.NewSource(seed)),
	}
}

var workloads = []*workload{
	{
		name:   "flat-enc",
		why:    "in-process 2-shard counter-encrypted tree in memory, synchronous: encrypt and core do the work, shard hand-off sets the tail; storage, dram and service changes must not move it",
		layers: []string{"pathoram", "shard", "core", "encrypt", "integrity", "storage"},
		shards: 2, clients: 2, batch: 1,
		spec: flatEncSpec,
	},
	{
		name:      "wal-async",
		why:       "same tree on the file backend with WAL depth 256 and staged write-back: storage checkpoint stalls dominate and core/encrypt run deferred; WAL group commit shows only here",
		hostBound: true,
		layers:    []string{"pathoram", "shard", "core", "encrypt", "storage"},
		shards:    2, clients: 2, batch: 1, file: true, async: true,
		spec: walAsyncSpec,
	},
	{
		name:   "dram-rec-zipf",
		why:    "1-shard recursive chain with PLB and overlap on the FR-FCFS DDR3 model, batches of 16, zipf(1.2): PLB hit path; simulator speed-ups move ops_per_s and leave every modeled count equal",
		layers: []string{"pathoram", "hierarchy", "core", "membus", "dram"},
		shards: 1, clients: 1, batch: 16, zipf: true, seeded: true,
		spec: dramRecSpec,
	},
	{
		name:   "dram-rec-uniform",
		why:    "same Spec, uniform addresses: the PLB miss and write-back path (hit rate 0.04, chain 3.99); a PLB or overlap change tuned for skew must not move this row",
		layers: []string{"pathoram", "hierarchy", "core", "membus", "dram"},
		shards: 1, clients: 1, batch: 16, seeded: true,
		spec: dramRecSpec,
	},
	{
		name:   "http-closed",
		why:    "flat-enc's Spec behind internal/service on a loopback socket, 2 tenants, 2 keep-alive connections, single-op POSTs: JSON/base64, handler and net/http dominate",
		layers: []string{"service", "pathoram", "shard", "encrypt"},
		shards: 2, clients: 2, tenants: 2, batch: 1,
		spec: flatEncSpec,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pathCounter counts Spec.OnPathAccess calls: every path any tree touches,
// the adversary's view. One padded slot per shard index, because distinct
// shards call the hook concurrently.
type pathCounter struct {
	slots [8]struct {
		atomic.Uint64
		_ [56]byte
	}
}

func (p *pathCounter) hook(shard, _ int, _ uint64) { p.slots[shard&7].Add(1) }

func (p *pathCounter) total() uint64 {
	var n uint64
	for i := range p.slots {
		n += p.slots[i].Load()
	}
	return n
}

// outDir is where everything the benchmark writes goes: results, the span
// file and the WAL directories. It sits under the working directory, which
// the entry script makes bench/.
const outDir = "out"

// scratchDir makes a fresh directory for one instance's tree files.
func scratchDir() (string, error) {
	root := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "wal-")
}
