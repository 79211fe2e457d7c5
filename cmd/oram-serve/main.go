// Command oram-serve measures the sharded serving layer: closed-loop
// throughput versus shard count under concurrent client load, with
// single-op and batched submission modes. The speedup column against the
// first shard count in the sweep is the headline sharding gain.
//
// Example:
//
//	oram-serve -blocks 16384 -blocksize 64 -shards 1,2,4,8 -clients 8 -ops 40000
//
// The oblivious routing modes (SECURITY.md) are driven by -partition and
// -padded; the pad/real column then reports the measured padding overhead:
//
//	oram-serve -partition random -batch 64 -padded
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	pathoram "repro"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/encrypt"
	"repro/internal/explore"
	"repro/internal/membus"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oram-serve: ")
	// The construction comes from Spec's text form in internal/explore, so
	// oram-serve, oram-server and the explorer grids cannot drift on names;
	// only the load-generation knobs are registered here. Every Spec flag
	// but -shards goes on the command line: this binary sweeps that axis.
	spec := pathoram.Spec{Blocks: 1 << 14, BlockSize: 64}
	specFlags := flag.NewFlagSet("spec", flag.ContinueOnError)
	explore.BindSpec(specFlags, &spec)
	specFlags.VisitAll(func(f *flag.Flag) {
		if f.Name != "shards" {
			flag.Var(f.Value, f.Name, f.Usage)
		}
	})
	var (
		shardsCSV = flag.String("shards", "1,2,4,8", "comma-separated shard counts to sweep")
		clients   = flag.Int("clients", 8, "concurrent closed-loop clients")
		ops       = flag.Int("ops", 40000, "total operations per configuration")
		batch     = flag.Int("batch", 0, "ops per batched submission (0 = single ops)")
		writeFrac = flag.Float64("writefrac", 0.5, "fraction of operations that are writes")
		think     = flag.Duration("think", 0, "client think time between operations (open-loop pacing; idle time is where -async wins)")
		paced     = flag.Bool("paced", false, "cycle-paced closed loop: admit each client's next op when the modeled DDR3 clock reaches its slot, making model-ops/s the headline metric (requires -backend dram)")
		mthink    = flag.Uint64("mthink", 2000, "modeled think cycles between a client's operations (with -paced)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the measured load phase (pre-fill excluded) to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile taken after the measured load phase to this file")
	)
	flag.Parse()

	// Inert construction flags are rejected by pathoram's rule table.
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	if spec.Padded && *batch <= 0 {
		log.Fatal("-padded pads batch schedules; set -batch > 0")
	}
	if *paced && spec.Backend != pathoram.BackendDRAM {
		log.Fatal("-paced admits ops by modeled memory time; it needs -backend dram")
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "mthink" && !*paced {
			log.Fatal("-mthink sets modeled think cycles for the paced loop; it needs -paced")
		}
	})
	shardCounts, err := parseInts(*shardsCSV)
	if err != nil {
		log.Fatalf("parsing -shards: %v", err)
	}
	if (*cpuProf != "" || *memProf != "") && len(shardCounts) > 1 {
		log.Fatal("-cpuprofile/-memprofile capture one configuration; pass a single -shards value")
	}

	recursive, timed := spec.PosMap == pathoram.PosMapRecursive, spec.Backend == pathoram.BackendDRAM
	fmt.Printf("oram-serve: %d blocks x %dB, %s encryption (keystream %s), integrity=%v, partition=%s, posmap=%s, padded=%v, async=%v\n",
		spec.Blocks, spec.BlockSize, spec.Encryption, encrypt.KeystreamImpl(), spec.Integrity, spec.Partition, spec.PosMap, spec.Padded, spec.AsyncEviction)
	if recursive {
		fmt.Printf("posmap: recursive (posmap block bytes=%s, on-chip bound bytes per shard=%s)\n",
			knob(spec.PosBlockSize, 0), knob(int(spec.OnChipPosMapMax), 0))
		if spec.PLBBytes > 0 {
			fmt.Printf("plb: %dB per shard, constant-shape=%v\n", spec.PLBBytes, spec.PLBConstantShape)
		}
		if spec.Overlap > 0 {
			fmt.Printf("overlap: %d requests pipeline across the posmap chain (Figure 5(b))\n", spec.Overlap)
		}
	}
	if timed {
		fmt.Printf("backend: dram (channels=%s, %s layout, serialize=%v, write-buffer depth=%s)\n",
			knob(spec.DRAMChannels, 0), spec.DRAMLayout, spec.DRAMSerialize,
			knob(spec.MaxDeferredWriteBacks, core.DefaultMaxDeferredWriteBacks))
		if spec.DRAMSched == pathoram.MemSchedFRFCFS {
			fmt.Printf("sched: frfcfs (open command queue depth=%s, starvation cap=%s)\n",
				knob(spec.DRAMQueueDepth, dram.DefaultQueueDepth), knob(spec.DRAMStarveCap, dram.DefaultStarvationCap))
		}
		if *paced {
			fmt.Printf("paced: closed loop on the modeled clock, think=%d cycles/op\n", *mthink)
		}
	}
	if spec.Backend == pathoram.BackendFile {
		fmt.Printf("backend: file (dir=%s, wal=%v, wal-depth=%d) — latencies include real I/O\n",
			spec.Dir, spec.WAL, spec.WALDepth)
	}
	fmt.Printf("load: %d clients, %d ops/config, batch=%d, writefrac=%.2f, think=%v, GOMAXPROCS=%d\n\n",
		*clients, *ops, *batch, *writeFrac, *think, runtime.GOMAXPROCS(0))

	w := newTable(os.Stdout)
	w.row("shards", "levels", "posmap-B", "plb-hit", "chain-len", "wall", "ops/s", "speedup", "p50", "p95", "p99", "dummy/real", "pad/real", "stash-peak", "imbalance", "row-hit", "B/cyc", "rd-cyc", "Mcycles", "model-ops/s")
	var baseline float64
	seed := flag.Lookup("seed").Value
	for _, n := range shardCounts {
		// One Spec covers the whole sweep: sharding, position-map recursion
		// and the timed backend are axes of the same constructor. Setting
		// -seed to itself restarts its stream, so a seeded row does not
		// depend on the rows before it.
		if err := seed.Set(seed.String()); err != nil {
			log.Fatal(err)
		}
		cfg := spec
		cfg.Shards = n
		if cfg.Backend == pathoram.BackendFile {
			// Tree-file geometry depends on the shard count, so each sweep
			// point gets its own subdirectory under -dir.
			cfg.Dir = filepath.Join(cfg.Dir, fmt.Sprintf("shards%d", n))
		}
		res, err := runConfig(cfg, load{
			clients: *clients, ops: *ops, batch: *batch, writeFrac: *writeFrac,
			think: *think, paced: *paced, mthink: *mthink,
			cpuProfile: *cpuProf, memProfile: *memProf,
		})
		if err != nil {
			log.Fatalf("shards=%d: %v", n, err)
		}
		if baseline == 0 {
			baseline = res.opsPerSec
		}
		w.row(
			strconv.Itoa(n),
			strconv.Itoa(res.levels),
			strconv.FormatUint(res.posmapBytes, 10),
			res.plbHit, res.chainLen,
			res.wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", res.opsPerSec),
			fmt.Sprintf("%.2fx", res.opsPerSec/baseline),
			res.p50.Round(time.Microsecond).String(),
			res.p95.Round(time.Microsecond).String(),
			res.p99.Round(time.Microsecond).String(),
			fmt.Sprintf("%.3f", res.dummyPerReal),
			fmt.Sprintf("%.3f", res.padPerReal),
			strconv.Itoa(res.stashPeak),
			fmt.Sprintf("%.2f", res.imbalance),
			res.rowHit, res.bytesPerCyc, res.readCyc, res.mcycles, res.modelOps,
		)
	}
	w.flush()
	fmt.Println("\nlevels    = ORAMs per access chain (1 = flat on-chip posmap); posmap-B = summed on-chip posmap bytes")
	if recursive {
		fmt.Println("chain-len = mean path accesses per op across the recursion chain (PLB hits shrink it)")
		if spec.PLBBytes > 0 {
			fmt.Println("plb-hit   = position-map lookaside cache hit rate across all chain interfaces")
		}
	}
	fmt.Println("imbalance = busiest shard's executed real requests / mean (1.00 is perfectly even)")
	fmt.Println("pad/real  = scheduler padding accesses per real access (padded batch overhead)")
	fmt.Println("p50/p95/p99 = client-visible latency per submission (per op, or per batch with -batch)")
	if timed {
		fmt.Println("row-hit = DRAM row-buffer hit rate; B/cyc = achieved bytes per memory cycle")
		fmt.Println("rd-cyc  = mean modeled path-read latency (DDR3 cycles, the access's critical path)")
		fmt.Println("Mcycles = modeled completion frontier of the measured traffic (millions of cycles)")
		fmt.Println("model-ops/s = ops per modeled second (measured ops / modeled cycles x 666.67 MHz DDR3-1333 bus clock)")
		if *paced {
			fmt.Println("paced: model-ops/s is the headline — clients were admitted by the modeled clock, not the wall clock")
		}
	}
}

// load holds the client-side load-generation knobs; everything about the
// ORAM construction itself lives in the pathoram.Spec the flags fill in.
type load struct {
	clients    int
	ops        int
	batch      int
	writeFrac  float64
	think      time.Duration
	paced      bool   // admit ops by modeled memory time (BackendDRAM only)
	mthink     uint64 // modeled think cycles between ops (with paced)
	cpuProfile string
	memProfile string
}

type result struct {
	levels        int
	posmapBytes   uint64
	wall          time.Duration
	opsPerSec     float64
	p50, p95, p99 time.Duration
	dummyPerReal  float64
	padPerReal    float64
	stashPeak     int
	imbalance     float64
	// Posmap-acceleration columns ("-" when flat / no PLB).
	plbHit, chainLen string
	// Modeled-timing columns ("-" under the untimed backend).
	rowHit, bytesPerCyc, readCyc, mcycles, modelOps string
}

func runConfig(spec pathoram.Spec, c load) (res result, err error) {
	client, err := pathoram.Open(spec)
	if err != nil {
		return result{}, err
	}
	s := client.(*pathoram.Sharded)
	// A Close error is a real result under -backend file: a failed final
	// checkpoint/msync means the measured run's durable state is suspect,
	// so it must surface (and main exits non-zero on it).
	defer func() {
		if cerr := s.Close(); cerr != nil && err == nil {
			res, err = result{}, fmt.Errorf("closing: %w", cerr)
		}
	}()

	// Pre-fill so the measurement sees steady state, then reset clocks.
	buf := make([]byte, spec.BlockSize)
	const chunk = 2048
	for lo := uint64(0); lo < spec.Blocks; lo += chunk {
		hi := min(lo+chunk, spec.Blocks)
		addrs := make([]uint64, 0, chunk)
		data := make([][]byte, 0, chunk)
		for a := lo; a < hi; a++ {
			addrs = append(addrs, a)
			data = append(data, buf)
		}
		if err := s.WriteBatch(addrs, data); err != nil {
			return result{}, err
		}
	}
	// Exclude the pre-fill from every reported metric: reset the protocol
	// counters and snapshot the cumulative scheduler and timing counters
	// (the TimingStats snapshot flushes, so pre-fill write-backs are fully
	// charged before the measurement starts).
	s.ResetStats()
	preSched := s.SchedulerStats()
	preTiming, timed := s.TimingStats()

	perClient := c.ops / c.clients
	if c.batch > 0 {
		// Clients round up to whole batches; account for what actually runs.
		perClient = (perClient + c.batch - 1) / c.batch * c.batch
	}
	if perClient == 0 {
		return result{}, fmt.Errorf("-ops %d spread over %d clients leaves no work per client", c.ops, c.clients)
	}
	// Profiles cover exactly the measured load phase: the CPU profile
	// starts here (after pre-fill and counter reset) and the allocation
	// profile is written right after the clients drain.
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return result{}, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return result{}, err
		}
		defer pprof.StopCPUProfile()
	}
	var wg sync.WaitGroup
	errs := make(chan error, c.clients)
	// Per-client latency logs (one slot per submission), merged after the
	// run for the percentile columns.
	lats := make([][]time.Duration, c.clients)
	start := time.Now()
	for cl := 0; cl < c.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cl) + 1))
			payload := make([]byte, spec.BlockSize)
			record := func(d time.Duration) { lats[cl] = append(lats[cl], d) }
			pc := &pacer{interval: c.mthink}
			admit := func() {
				if c.paced {
					pacedWait(s, pc)
				}
			}
			if c.batch > 0 {
				lats[cl] = make([]time.Duration, 0, (perClient+c.batch-1)/c.batch)
				addrs := make([]uint64, c.batch)
				for done := 0; done < perClient; done += c.batch {
					for j := range addrs {
						addrs[j] = rng.Uint64() % spec.Blocks
					}
					admit()
					t0 := time.Now()
					if rng.Float64() < c.writeFrac {
						data := make([][]byte, c.batch)
						for j := range data {
							data[j] = payload
						}
						if err := s.WriteBatch(addrs, data); err != nil {
							errs <- err
							return
						}
					} else if _, err := s.ReadBatch(addrs); err != nil {
						errs <- err
						return
					}
					record(time.Since(t0))
					if c.think > 0 {
						time.Sleep(c.think)
					}
				}
				return
			}
			lats[cl] = make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				addr := rng.Uint64() % spec.Blocks
				var opErr error
				admit()
				t0 := time.Now()
				if rng.Float64() < c.writeFrac {
					opErr = s.Write(addr, payload)
				} else {
					_, opErr = s.Read(addr)
				}
				if opErr != nil {
					errs <- opErr
					return
				}
				record(time.Since(t0))
				if c.think > 0 {
					time.Sleep(c.think)
				}
			}
		}(cl)
	}
	wg.Wait()
	wall := time.Since(start)
	if c.cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if c.memProfile != "" {
		f, err := os.Create(c.memProfile)
		if err != nil {
			return result{}, err
		}
		runtime.GC() // flush pending frees so the profile shows live + cumulative allocs accurately
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return result{}, err
		}
		f.Close()
	}
	select {
	case err := <-errs:
		return result{}, err
	default:
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		return all[int(p*float64(len(all)-1))]
	}

	st := s.Stats()
	sched := s.SchedulerStats()
	var total, max uint64
	for i, n := range sched.ExecutedPerShard {
		n -= preSched.ExecutedPerShard[i]
		total += n
		if n > max {
			max = n
		}
	}
	mean := float64(total) / float64(len(sched.ExecutedPerShard))
	res = result{
		levels:       s.NumORAMs(),
		posmapBytes:  s.OnChipPositionMapBytes(),
		wall:         wall,
		opsPerSec:    float64(c.clients*perClient) / wall.Seconds(),
		p50:          pct(0.50),
		p95:          pct(0.95),
		p99:          pct(0.99),
		dummyPerReal: st.DummyPerReal(),
		padPerReal:   st.PaddingPerReal(),
		stashPeak:    st.StashPeak,
		imbalance:    float64(max) / mean,
		plbHit:       "-", chainLen: "-",
		rowHit: "-", bytesPerCyc: "-", readCyc: "-", mcycles: "-", modelOps: "-",
	}
	if st.ChainSamples > 0 {
		res.chainLen = fmt.Sprintf("%.2f", st.MeanChainLength())
	}
	if spec.PLBBytes > 0 {
		res.plbHit = fmt.Sprintf("%.3f", st.PLBHitRate())
	}
	if timed {
		// Diff against the post-pre-fill snapshot so the modeled columns
		// describe the measured traffic only. The closing snapshot flushes
		// first, so every deferred write-back the traffic owed is charged.
		post, _ := s.TimingStats()
		d := post.Delta(preTiming)
		res.rowHit = fmt.Sprintf("%.3f", d.RowHitRate())
		res.bytesPerCyc = fmt.Sprintf("%.2f", d.BytesPerCycle())
		res.readCyc = fmt.Sprintf("%.0f", d.MeanReadCycles())
		res.mcycles = fmt.Sprintf("%.1f", float64(d.Cycles)/1e6)
		if d.Cycles > 0 {
			res.modelOps = fmt.Sprintf("%.0f",
				float64(c.clients*perClient)*membus.CyclesPerSecond/float64(d.Cycles))
		}
	}
	return res, nil
}

// pacedWait blocks until the pacer admits the next submission on the
// modeled clock. The frontier only advances when some client's traffic
// retires, so if every client is waiting out its think time nothing
// moves; after a bounded wall spin the pacer skips the modeled idle
// span instead of simulating it (idle cycles carry no information — the
// metric of interest is ops per modeled second under load).
func pacedWait(s *pathoram.Sharded, p *pacer) {
	// The stall budget is wall-clock and burned by yielding, not sleeping:
	// an in-flight op retires in tens of microseconds, so a yield loop
	// observes the frontier move almost immediately, while sleep
	// granularity on a loaded host can be coarser than the whole budget.
	const stallBudget = time.Millisecond
	var deadline time.Time
	for {
		now, ok := s.ModeledFrontier()
		if !ok || p.admit(now) {
			return
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(stallBudget)
		} else if time.Now().After(deadline) {
			p.skipIdle(now)
			continue // the reset slot admits on the next iteration
		}
		runtime.Gosched()
	}
}

// knob renders a numeric Spec knob for the header: 0 selects the owning
// layer's default, printed from its exported constant where there is one.
func knob(v, def int) string {
	if v == 0 {
		v = def
	}
	if v == 0 {
		return "default"
	}
	return strconv.Itoa(v)
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("shard count %d must be >= 1", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty sweep")
	}
	return out, nil
}

// table is a minimal right-aligned column printer.
type table struct {
	out  *os.File
	rows [][]string
}

func newTable(out *os.File) *table { return &table{out: out} }

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) flush() {
	if len(t.rows) == 0 {
		return
	}
	widths := make([]int, len(t.rows[0]))
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			fmt.Fprintf(t.out, "%*s  ", widths[i], c)
		}
		fmt.Fprintln(t.out)
	}
}
