package exp

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig12Config parameterizes the secure-processor benchmark study: SPEC-like
// workloads on the Table 1 core, with main memory being either DRAM
// (insecure baseline) or one of the Path ORAM configurations. Each
// configuration's dummy rate comes from the hierarchy grids' cells (the
// fig10 and ablate-superblock presets between them cover the defaults).
type Fig12Config struct {
	Benchmarks   []string
	Settings     []Setting
	Instructions uint64
	Warmup       uint64
	Channels     int
	Table2       Table2Config
	Seed         int64
}

// DefaultFig12 returns the paper's Figure 12 setup with scaled instruction
// counts.
func DefaultFig12() Fig12Config {
	var names []string
	for _, p := range trace.SPEC06() {
		names = append(names, p.Name)
	}
	t2 := DefaultTable2()
	t2.Settings = []Setting{BaseORAM, DZ3Pb32, DZ3Pb32SB, DZ4Pb32, DZ4Pb32SB}
	return Fig12Config{
		Benchmarks:   names,
		Settings:     []Setting{BaseORAM, DZ3Pb32, DZ3Pb32SB, DZ4Pb32SB},
		Instructions: 400_000,
		Warmup:       400_000,
		Channels:     4,
		Table2:       t2,
		Seed:         23,
	}
}

// ORAMModel is the reduced ORAM description the CPU model consumes.
type ORAMModel struct {
	Setting   Setting
	Return    uint64
	Finish    uint64
	DummyRate float64
}

// dummyRate finds the measured rate of the named setting (first match).
func dummyRate(cells []Cell, name string) (float64, error) {
	for _, c := range cells {
		if settingOf(c.Spec).Name == name && !c.Infeasible() {
			return c.DummyRate(), nil
		}
	}
	return 0, fmt.Errorf("exp: no feasible grid cell measures %s", name)
}

// BuildORAMModels derives {return, finish, dummy-rate} for each setting
// (the Table 2 -> Section 4.3 pipeline), reading the rates from cells.
func BuildORAMModels(cfg Fig12Config, cells []Cell) ([]ORAMModel, error) {
	t2cfg := cfg.Table2
	t2cfg.Settings = nil
	// Deduplicate latency measurements: the +SB variants share latencies
	// with their base configs (same tree shapes; the extra dummies are
	// captured by the dummy rate).
	latencyName := func(s Setting) Setting {
		b := s
		b.SuperBlock = 1
		b.Name = fmt.Sprintf("DZ%dPb%d", s.DataZ, s.PosBlockBytes)
		if s.Name == "baseORAM" {
			b = BaseORAM
		}
		return b
	}
	seen := map[string]bool{}
	for _, s := range cfg.Settings {
		b := latencyName(s)
		if !seen[b.Name] {
			seen[b.Name] = true
			t2cfg.Settings = append(t2cfg.Settings, b)
		}
	}
	t2, err := RunTable2(t2cfg)
	if err != nil {
		return nil, err
	}
	var models []ORAMModel
	for _, s := range cfg.Settings {
		base := latencyName(s)
		row := t2.Find(base.Name)
		if row == nil {
			return nil, fmt.Errorf("exp: no Table 2 row for %s", base.Name)
		}
		rate, err := dummyRate(cells, s.Name)
		if err != nil {
			return nil, err
		}
		models = append(models, ORAMModel{
			Setting:   s,
			Return:    row.ReturnCycles,
			Finish:    row.FinishCycles,
			DummyRate: rate,
		})
	}
	return models, nil
}

// Fig12Row is one benchmark's slowdowns.
type Fig12Row struct {
	Benchmark    string
	BaselineCPI  float64
	BaselineMPKI float64
	Slowdowns    []float64 // per setting, normalized to the DRAM baseline
}

// Fig12Result holds the study.
type Fig12Result struct {
	Config  Fig12Config
	Models  []ORAMModel
	Rows    []Fig12Row
	Average []float64 // per setting (arithmetic mean, as the paper reports)
	GeoMean []float64
}

// RunFig12 executes every benchmark against the DRAM baseline and each
// ORAM configuration.
func RunFig12(cfg Fig12Config, cells []Cell) (*Fig12Result, error) {
	models, err := BuildORAMModels(cfg, cells)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{Config: cfg, Models: models}
	coreCfg := cpu.Default()
	sums := make([]float64, len(models))
	geos := make([][]float64, len(models))
	for _, name := range cfg.Benchmarks {
		prof := trace.ProfileByName(name)
		if prof == nil {
			return nil, fmt.Errorf("exp: unknown benchmark %q", name)
		}
		sys, err := dram.New(dram.MicronGeometry(cfg.Channels), dram.DDR3Micron())
		if err != nil {
			return nil, err
		}
		baseRes, err := cpu.RunWithWarmup(coreCfg, prof.Generator(cfg.Seed),
			cpu.NewDRAMMemory(sys, coreCfg.LineBytes), cfg.Warmup, cfg.Instructions)
		if err != nil {
			return nil, err
		}
		row := Fig12Row{Benchmark: name, BaselineCPI: baseRes.CPI(), BaselineMPKI: baseRes.MPKI()}
		for i, m := range models {
			mem := &cpu.ORAMMemory{
				ReturnLat:  m.Return,
				FinishLat:  m.Finish,
				DummyRate:  m.DummyRate,
				SuperBlock: m.Setting.SuperBlock > 1,
			}
			r, err := cpu.RunWithWarmup(coreCfg, prof.Generator(cfg.Seed), mem, cfg.Warmup, cfg.Instructions)
			if err != nil {
				return nil, err
			}
			slow := float64(r.Cycles) / float64(baseRes.Cycles)
			row.Slowdowns = append(row.Slowdowns, slow)
			sums[i] += slow
			geos[i] = append(geos[i], slow)
		}
		res.Rows = append(res.Rows, row)
	}
	for i := range models {
		res.Average = append(res.Average, sums[i]/float64(len(res.Rows)))
		res.GeoMean = append(res.GeoMean, stats.GeoMean(geos[i]))
	}
	return res, nil
}

// Table renders Figure 12: slowdown versus the insecure DRAM baseline.
func (r *Fig12Result) Table() *Table {
	t := &Table{
		Title:  "Figure 12: benchmark slowdown vs insecure processor with DRAM",
		Header: []string{"benchmark", "base CPI", "MPKI"},
		Note:   "synthetic SPEC06-int stand-ins (see internal/trace); slowdown = cycles / DRAM cycles",
	}
	for _, m := range r.Models {
		t.Header = append(t.Header, m.Setting.Name)
	}
	for _, row := range r.Rows {
		cells := []string{row.Benchmark, f2(row.BaselineCPI), f2(row.BaselineMPKI)}
		for _, s := range row.Slowdowns {
			cells = append(cells, f2(s))
		}
		t.AddRow(cells...)
	}
	avg := []string{"average", "", ""}
	for _, a := range r.Average {
		avg = append(avg, f2(a))
	}
	t.AddRow(avg...)
	return t
}

// ImprovementVsBase returns 1 - avg(setting)/avg(baseORAM): the paper's
// headline 43.9% (DZ3Pb32) and 52.4% (DZ4Pb32+SB) numbers.
func (r *Fig12Result) ImprovementVsBase(name string) (float64, error) {
	bi, ni := -1, -1
	for i, m := range r.Models {
		if m.Setting.Name == "baseORAM" {
			bi = i
		}
		if m.Setting.Name == name {
			ni = i
		}
	}
	if bi < 0 || ni < 0 {
		return 0, fmt.Errorf("exp: missing models for improvement (%q vs baseORAM)", name)
	}
	return 1 - r.Average[ni]/r.Average[bi], nil
}
