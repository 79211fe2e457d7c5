// Command oram-explore runs the Path ORAM design-space explorations of
// Section 4.1: stash occupancy (Figure 3), dummy-access ratios (Figure 7),
// the utilization sweep (Figure 8), the capacity sweep (Figure 9) and the
// hierarchical overhead breakdown (Figure 10).
//
// Problem sizes default to scaled-down working sets that finish in seconds;
// raise -ws (and be patient) to approach paper scale.
//
// -grid switches to the automated design-space explorer: it sweeps a
// declarative configuration grid (a preset name or a JSON file of flag
// axes, see internal/explore.Grid) under the workload suite, marks the Pareto
// frontier over {p99 latency, modeled cycles/op, on-chip bytes}, prints
// the frontier table and writes a schema-validated JSON report:
//
//	oram-explore -grid smoke -out BENCH_pr7.json
//	oram-explore -check BENCH_pr7.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/explore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oram-explore: ")
	var (
		fig        = flag.Int("fig", 0, "figure to reproduce: 3, 7, 8, 9 or 10 (0 = all)")
		ws         = flag.Uint64("ws", 0, "working-set blocks (0 = per-figure default)")
		perBlock   = flag.Int("accesses-per-block", 0, "accesses per block (paper: 10; 0 = default)")
		seed       = flag.Int64("seed", 1, "PRNG seed")
		grid       = flag.String("grid", "", "design-space sweep: preset ("+strings.Join(explore.PresetNames(), "|")+") or a JSON grid file; replaces the figure modes")
		out        = flag.String("out", "BENCH_pr7.json", "report path for -grid")
		ops        = flag.Int("ops", 2048, "measured operations per (config, workload) cell (with -grid)")
		warmup     = flag.Int("warmup", 256, "unmeasured warm-up operations per cell (with -grid)")
		batch      = flag.Int("batch", 16, "submission batch size for padded configs (with -grid)")
		checkPath  = flag.String("check", "", "validate an existing report against the embedded schema and exit")
		minConfigs = flag.Int("min-configs", 0, "with -check: minimum distinct configurations the report must cover")
	)
	flag.Parse()

	if *checkPath != "" {
		runCheck(*checkPath, *minConfigs)
		return
	}
	if *grid != "" {
		runGrid(*grid, *out, explore.Options{Ops: *ops, Warmup: *warmup, Batch: *batch, Seed: *seed})
		return
	}

	run := func(f int) {
		switch f {
		case 3:
			cfg := exp.DefaultFig3()
			apply3(&cfg, *ws, *perBlock, *seed)
			res, err := exp.RunFig3(cfg)
			check(err)
			fmt.Println(res.Table())
		case 7:
			cfg := exp.DefaultFig7()
			if *ws != 0 {
				cfg.WorkingSetBlocks = *ws
			}
			if *perBlock != 0 {
				cfg.AccessesPerBlock = *perBlock
			}
			cfg.Seed = *seed
			res, err := exp.RunFig7(cfg)
			check(err)
			fmt.Println(res.Table())
		case 8:
			cfg := exp.DefaultFig8()
			if *ws != 0 {
				cfg.WorkingSetBlocks = *ws
			}
			if *perBlock != 0 {
				cfg.AccessesPerBlock = *perBlock
			}
			cfg.Seed = *seed
			res, err := exp.RunFig8(cfg)
			check(err)
			fmt.Println(res.Table())
			if best := res.Best(); best != nil {
				fmt.Printf("best configuration: Z=%d at %.0f%% utilization (overhead %.1f)\n\n",
					best.Z, 100*best.Utilization, best.Overhead)
			}
		case 9:
			cfg := exp.DefaultFig9()
			if *perBlock != 0 {
				cfg.AccessesPerBlock = *perBlock
			}
			cfg.Seed = *seed
			res, err := exp.RunFig9(cfg)
			check(err)
			fmt.Println(res.Table())
		case 10:
			cfg := exp.DefaultFig10()
			if *ws != 0 {
				cfg.SimWorkingSet = *ws
			}
			cfg.Seed = *seed
			res, err := exp.RunFig10(cfg)
			check(err)
			fmt.Println(res.Table())
			if red, err := res.ReductionVsBase("DZ3Pb32"); err == nil {
				fmt.Printf("DZ3Pb32 overhead reduction vs baseORAM: %.1f%% (paper: 41.8%%)\n", 100*red)
			}
			if red, err := res.ReductionVsBase("DZ4Pb32"); err == nil {
				fmt.Printf("DZ4Pb32 overhead reduction vs baseORAM: %.1f%% (paper: 35.0%%)\n\n", 100*red)
			}
		default:
			log.Printf("unknown figure %d", f)
			os.Exit(2)
		}
	}
	if *fig == 0 {
		for _, f := range []int{3, 7, 8, 9, 10} {
			run(f)
		}
		return
	}
	run(*fig)
}

func apply3(cfg *exp.Fig3Config, ws uint64, perBlock int, seed int64) {
	if ws != 0 {
		cfg.WorkingSetBlocks = ws
	}
	if perBlock != 0 {
		cfg.AccessesPerBlock = perBlock
	}
	cfg.Seed = seed
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// runCheck validates an existing report file against the embedded
// schema's constraints and additionally requires a non-empty marked
// Pareto frontier and (when minConfigs > 0) a minimum sweep breadth —
// the properties CI's explore-smoke job gates on.
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

// runGrid sweeps the grid, marks the frontier, prints the table and
// writes the report.
func runGrid(gridName, outPath string, opts explore.Options) {
	g, err := explore.LoadGrid(gridName)
	check(err)
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
	w := newTable(os.Stdout)
	w.row("workload", "config", "p99-ns", "cycles/op", "onchip-B", "ns/op", "leakage")
	for _, r := range front {
		w.row(r.Workload, r.Config,
			metric(r, "p99-ns"), metric(r, "cycles/op"), metric(r, "onchip-B"),
			metric(r, "ns/op"), r.Leakage)
	}
	w.flush()
	fmt.Printf("\nreport written to %s (validate with -check %s)\n", outPath, outPath)
}

func metric(r explore.Row, key string) string {
	v, ok := r.Metrics[key]
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// table is a minimal right-aligned column printer (same shape as
// cmd/oram-serve's).
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
