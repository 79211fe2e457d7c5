// Command oram-explore is the evaluation driver. Its modes:
//
//	oram-explore -grid smoke              # sweep a grid: a preset or a JSON file of flag axes
//	oram-explore -grid fig8 -ops 131072   # a paper figure is a preset: the sweep, then the paper's table
//	oram-explore -grid shards -clients 8  # throughput vs shard count under 8 concurrent clients
//	oram-explore -check explore-smoke.json
//	oram-explore -paper [-quick]          # every table and figure of the paper (EXPERIMENTS.md's source)
//	oram-explore -record mcf -out mcf.pot # record a synthetic benchmark trace ...
//	oram-explore -replay mcf.pot          # ... and replay it through the processor model
//
// -grid sweeps a declarative configuration grid (internal/explore.Grid)
// under the workload suite, marks the Pareto frontier over {p99 latency,
// modeled cycles/op, on-chip bytes}, prints the frontier table and writes a
// schema-validated JSON report to explore-<grid>.json (or -out). Figures
// 7-10 and the stash and super-block ablations are presets; the rest of
// the paper's evaluation (stash occupancy, the CPL attack, the DRAM and
// processor studies, integrity) runs under -paper. Problem sizes are scaled
// down so everything finishes in minutes; raise a grid's -ops to tighten
// its rates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/explore"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oram-explore: ")
	var (
		grid       = flag.String("grid", "", "design-space sweep: preset ("+strings.Join(explore.PresetNames(), "|")+") or a JSON grid file")
		paper      = flag.Bool("paper", false, "print the consolidated paper report")
		quick      = flag.Bool("quick", false, "with -paper: smaller problem sizes (smoke run)")
		record     = flag.String("record", "", "benchmark profile to record as a trace (e.g. mcf)")
		replay     = flag.String("replay", "", "trace file to replay through the CPU model")
		checkPath  = flag.String("check", "", "validate an existing report against the embedded schema and exit")
		minConfigs = flag.Int("min-configs", 0, "with -check: minimum distinct configurations the report must cover")
		out        = flag.String("out", "", "output path (default explore-<grid>.json with -grid, trace.pot with -record)")
		ops        = flag.Int("ops", 2048, "with -grid: measured operations per (config, workload) cell")
		warmup     = flag.Int("warmup", 256, "unmeasured warm-up operations per cell")
		batch      = flag.Int("batch", 16, "submission batch size for padded configs")
		clients    = flag.Int("clients", 1, "with -grid: concurrent closed-loop clients per measured cell (above 1, rows are not reproducible run to run)")
		seed       = flag.Int64("seed", 1, "PRNG seed")
	)
	flag.Parse()

	opts := explore.Options{Ops: *ops, Warmup: *warmup, Batch: *batch, Clients: *clients, Seed: *seed}
	switch {
	case *checkPath != "":
		runCheck(*checkPath, *minConfigs)
	case *grid != "":
		runGrid(*grid, *out, opts)
	case *paper:
		runPaper(*quick, opts)
	case *record != "":
		recordTrace(*record, *out, *seed)
	case *replay != "":
		replayTrace(*replay)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// runCheck validates an existing report file against the embedded
// schema's constraints and additionally requires a non-empty marked
// Pareto frontier that no infeasible row sits on and (when minConfigs > 0)
// a minimum sweep breadth — the properties CI's gates job holds.
func runCheck(path string, minConfigs int) {
	data, err := os.ReadFile(path)
	check(err)
	check(explore.ValidateReport(data))
	var rep explore.Report
	check(json.Unmarshal(data, &rep))
	frontier := 0
	configs := map[string]bool{}
	for _, b := range rep.Benchmarks {
		if b.Pareto {
			if b.Metrics["infeasible"] != 0 {
				log.Fatalf("%s: infeasible row %s is Pareto-marked", path, b.Name)
			}
			frontier++
		}
		configs[b.Config] = true
	}
	if frontier == 0 {
		log.Fatalf("%s: no Pareto-marked rows — the frontier must be non-empty", path)
	}
	if len(configs) < minConfigs {
		log.Fatalf("%s: %d distinct configurations, gate requires >= %d", path, len(configs), minConfigs)
	}
	fmt.Printf("%s: schema-valid, %d rows over %d configurations, %d on the Pareto frontier\n",
		path, len(rep.Benchmarks), len(configs), frontier)
}

// runGrid sweeps the grid, marks the frontier, writes the report and
// prints the frontier — and, for a figure preset, the paper's table.
func runGrid(gridName, outPath string, opts explore.Options) {
	g, err := explore.LoadGrid(gridName)
	check(err)
	if outPath == "" {
		outPath = "explore-" + strings.TrimSuffix(filepath.Base(gridName), ".json") + ".json"
	}
	rows, err := explore.Run(g, opts, log.Printf)
	check(err)
	explore.MarkPareto(rows, explore.Objectives)

	rep := explore.NewReport(gridName, explore.Objectives, rows)
	data, err := json.MarshalIndent(rep, "", "  ")
	check(err)
	check(explore.ValidateReport(data))
	check(os.WriteFile(outPath, append(data, '\n'), 0o644))

	front := explore.Frontier(rows)
	fmt.Printf("\n%d configurations x workloads measured; %d on the Pareto frontier over {%s}\n\n",
		len(rows), len(front), strings.Join(explore.Objectives, ", "))
	t := &exp.Table{Header: []string{"workload", "config", "p99-ns", "cycles/op", "onchip-B", "ns/op", "leakage"}}
	for _, r := range front {
		t.AddRow(r.Workload, r.Config,
			metric(r, "p99-ns"), metric(r, "cycles/op"), metric(r, "onchip-B"),
			metric(r, "ns/op"), r.Leakage)
	}
	fmt.Println(t)
	if render, ok := exp.Figures[gridName]; ok {
		cells, err := exp.Cells(g, rows)
		check(err)
		show(render(cells))
	}
	fmt.Printf("report written to %s (validate with -check %s)\n", outPath, outPath)
}

func metric(r explore.Row, key string) string {
	v, ok := r.Metrics[key]
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func show(t *exp.Table, err error) {
	check(err)
	fmt.Println(t)
}

// report prints the table of a runner's result.
func report(res interface{ Table() *exp.Table }, err error) {
	check(err)
	fmt.Println(res.Table())
}

// runPaper regenerates every table and figure of the paper's evaluation
// in one run. The protocol figures are the explore presets, swept at
// opts.Seed with 8 measured accesses per block of the working set; the
// bespoke runners keep their recorded seeds.
func runPaper(quick bool, opts explore.Options) {
	start := time.Now()
	section := func(name string) {
		fmt.Printf("\n######## %s (t=%s) ########\n\n", name, time.Since(start).Round(time.Second))
	}
	ws, capacities := uint64(1<<14), []uint64{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	if quick {
		ws, capacities = 1<<12, capacities[:2]
	}
	opts.Ops = 8 * int(ws)
	sweep := func(g explore.Grid) []exp.Cell {
		cells, err := exp.Sweep(g, opts)
		check(err)
		return cells
	}

	vsBase := func(what string, of func(string) (float64, error), name string, paper float64) {
		if v, err := of(name); err == nil {
			fmt.Printf("%s %s vs baseORAM: %.1f%% (paper: %.1f%%)\n", name, what, 100*v, paper)
		}
	}

	section("Figure 3: stash occupancy")
	f3 := exp.DefaultFig3()
	if quick {
		f3.WorkingSetBlocks = 1 << 12
	}
	report(exp.RunFig3(f3))

	section("Figure 4: CPL attack on insecure eviction")
	f4 := exp.DefaultFig4()
	if quick {
		f4.Experiments = 20
	}
	report(exp.RunFig4(f4))

	section("Figure 7: dummy/real ratio vs stash size")
	show(exp.Figures["fig7"](sweep(explore.Fig7Grid(ws))))

	section("Figure 8: access overhead vs utilization")
	c8 := sweep(explore.Fig8Grid(ws))
	show(exp.Figures["fig8"](c8))
	if best := exp.Best(c8); best != nil {
		fmt.Printf("best: Z=%d at %.0f%% utilization, overhead %.1f\n",
			best.Spec.Z, 100*best.Utilization(), best.Overhead())
	}

	section("Figure 9: access overhead vs capacity")
	show(exp.Figures["fig9"](sweep(explore.Fig9Grid(capacities...))))

	section("Figure 10: hierarchical overhead breakdown")
	c10 := sweep(explore.Fig10Grid(ws))
	r10 := exp.RunFig10(c10)
	fmt.Println(r10.Table())
	vsBase("reduction", r10.ReductionVsBase, "DZ3Pb32", 41.8)
	vsBase("reduction", r10.ReductionVsBase, "DZ4Pb32", 35.0)

	section("Figure 5: hierarchical access ordering")
	report(exp.RunFig5(exp.DZ3Pb32, exp.PaperWorkingSet, 2, 32, 31))

	section("Figure 11: DRAM placement")
	f11 := exp.DefaultFig11()
	if quick {
		f11.Accesses = 16
	}
	report(exp.RunFig11(f11))

	section("Table 2: latency and on-chip storage")
	report(exp.RunTable2(exp.DefaultTable2()))

	section("Figure 12: SPEC benchmark slowdowns")
	cSB := sweep(explore.SuperBlockGrid(ws))
	f12 := exp.DefaultFig12()
	if quick {
		f12.Instructions = 100_000
		f12.Warmup = 100_000
	}
	r12, err := exp.RunFig12(f12, append(c10, cSB...))
	check(err)
	fmt.Println(r12.Table())
	vsBase("improvement", r12.ImprovementVsBase, "DZ3Pb32", 43.9)
	vsBase("improvement", r12.ImprovementVsBase, "DZ4Pb32+SB", 52.4)

	section("Section 5: integrity verification")
	report(exp.RunIntegrity(exp.DefaultIntegrity()))

	section("Ablations beyond the paper's figures")
	show(exp.Figures["ablate-superblock"](cSB))
	ex := exp.DefaultExclusiveAblation()
	if quick {
		ex.Instructions, ex.Warmup = 400_000, 400_000
	}
	report(exp.RunExclusiveAblation(ex))
	fmt.Println(exp.RunEncryptionAblation(exp.PaperWorkingSet).Table())
	show(exp.Figures["ablate-stash"](sweep(explore.StashGrid(ws))))
	// DRAM channel scaling: Figure 11's sweep extended to 8 channels.
	report(exp.RunFig11(exp.Fig11Config{WorkingSet: exp.PaperWorkingSet, Channels: []int{1, 2, 4, 8},
		Settings: []exp.Setting{exp.DZ3Pb32}, Accesses: 32, Seed: 41}))

	fmt.Printf("\ntotal runtime: %s\n", time.Since(start).Round(time.Millisecond))
}

// recordTrace writes a million instructions of a synthetic benchmark
// profile to a trace file, so experiments can be repeated bit-identically
// or fed with externally produced traces in the same format
// (internal/trace.Write).
func recordTrace(profile, out string, seed int64) {
	const n = 1_000_000
	p := trace.ProfileByName(profile)
	if p == nil {
		var names []string
		for _, p := range trace.SPEC06() {
			names = append(names, p.Name)
		}
		log.Fatalf("unknown profile %q (have: %s)", profile, strings.Join(names, ", "))
	}
	if out == "" {
		out = "trace.pot"
	}
	f, err := os.Create(out)
	check(err)
	check(trace.Write(f, trace.Record(p.Generator(seed), n)))
	st, err := f.Stat()
	check(err)
	check(f.Close())
	fmt.Printf("recorded %d instructions of %s to %s (%.2f bytes/instr)\n",
		n, profile, out, float64(st.Size())/float64(n))
}

// replayTrace runs a recorded trace through the processor model with the
// DZ3Pb32 ORAM of Table 2 as main memory.
func replayTrace(path string) {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	instrs, err := trace.Read(f)
	check(err)
	gen, err := trace.NewReplayer(instrs)
	check(err)
	ret, finish, err := exp.Table2Latency()
	check(err)
	mem := &cpu.ORAMMemory{ReturnLat: ret, FinishLat: finish}
	res, err := cpu.Run(cpu.Default(), gen, mem, uint64(len(instrs)))
	check(err)
	fmt.Printf("replayed %d instructions: CPI=%.2f MPKI=%.2f (DZ3Pb32 ORAM memory)\n",
		res.Instructions, res.CPI(), res.MPKI())
}
