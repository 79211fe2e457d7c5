package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/dram"
	"repro/internal/membus"
)

// replay feeds n whole hierarchical accesses of a sized hierarchy through
// the serving layer's own timing model: one membus.Bus under FR-FCFS at
// its defaults (the paper's DRAMSim2 setup), one Chain, and one Port per
// ORAM sized by its bucket bytes, the data ORAM's region at address 0.
// Sequential is Figure 5(a), an overlap-0 chain: each level, smallest
// first, reads its path and writes it back. Otherwise it is 5(b), an
// overlap-1 chain: every read, then every write-back. Each access's round
// opens at the previous access's finish (Section 3.3.2). It returns the
// mean return-data latency (the data ORAM's read completion) and finish
// latency (the last write-back's completion) in DRAM cycles, and the
// bus's counters.
func replay(h analysis.Hierarchy, channels int, layout membus.Layout, sequential bool, n int, seed int64) (meanReturn, meanFinish float64, st membus.Stats, err error) {
	bus, err := membus.New(membus.Config{Channels: channels, Layout: layout,
		Sched: dram.SchedConfig{Policy: dram.SchedFRFCFS}})
	if err != nil {
		return 0, 0, st, err
	}
	chain := bus.NewChain(1)
	if sequential {
		chain = bus.NewChain(0)
	}
	ports := make([]*membus.Port, len(h.Levels)) // ports[0]: the data ORAM
	for i := range ports {
		if ports[i], err = chain.Attach(h.Levels[i].LeafLevel, h.Levels[i].BucketBytes(), i == 0); err != nil {
			return 0, 0, st, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	leaves := make([]uint64, len(ports))
	var at, sumR, sumF uint64
	for a := 0; a < n; a++ {
		chain.RoundStart(at)
		for i := len(ports) - 1; i >= 0; i-- {
			leaves[i] = rng.Uint64() % (uint64(1) << h.Levels[i].LeafLevel)
			ports[i].ReadPath(leaves[i], nil)
			if i == 0 {
				sumR += ports[0].Stats().Cycles - at
			}
			if sequential {
				ports[i].WritePath(leaves[i], false)
			}
		}
		if !sequential {
			for i := len(ports) - 1; i >= 0; i-- {
				ports[i].WritePath(leaves[i], false)
			}
		}
		finish := bus.Cycles()
		sumF += finish - at
		at = finish
	}
	return float64(sumR) / float64(n), float64(sumF) / float64(n), bus.Stats(), nil
}

// TheoreticalLatency returns the paper's "theoretical" series: total bytes
// moved per access divided by peak bandwidth.
func TheoreticalLatency(h analysis.Hierarchy, channels int) float64 {
	sys, err := dram.New(dram.MicronGeometry(channels), dram.DDR3Micron())
	if err != nil {
		return 0
	}
	return float64(h.PathBytesTotal()) / sys.PeakBytesPerCycle()
}

// Fig11Config parameterizes the placement study.
type Fig11Config struct {
	WorkingSet uint64
	Channels   []int
	Settings   []Setting
	Accesses   int
	Seed       int64
}

// DefaultFig11 returns the paper's setup: 8 GB data ORAM (4 GB working
// set), the four best configurations, 1/2/4 channels.
func DefaultFig11() Fig11Config {
	return Fig11Config{
		WorkingSet: 1 << 25,
		Channels:   []int{1, 2, 4},
		Settings:   []Setting{DZ3Pb12, DZ4Pb12, DZ3Pb32, DZ4Pb32},
		Accesses:   64,
		Seed:       13,
	}
}

// Fig11Point is one (setting, channels) measurement.
type Fig11Point struct {
	Setting     string
	Channels    int
	Naive       float64 // finish latency, DRAM cycles
	Subtree     float64
	Theoretical float64
	// Return-data latencies (used by Table 2).
	NaiveReturn, SubtreeReturn float64
}

// Fig11Result holds the sweep.
type Fig11Result struct {
	Config Fig11Config
	Points []Fig11Point
}

// RunFig11 measures naive vs subtree placement against the theoretical
// bound for every configuration and channel count.
func RunFig11(cfg Fig11Config) (*Fig11Result, error) {
	res := &Fig11Result{Config: cfg}
	for _, set := range cfg.Settings {
		h, err := set.Hierarchy(cfg.WorkingSet)
		if err != nil {
			return nil, err
		}
		for _, ch := range cfg.Channels {
			pt := Fig11Point{Setting: set.Name, Channels: ch,
				Theoretical: TheoreticalLatency(h, ch)}
			if pt.NaiveReturn, pt.Naive, _, err = replay(h, ch, membus.LayoutNaive, false, cfg.Accesses, cfg.Seed); err != nil {
				return nil, err
			}
			if pt.SubtreeReturn, pt.Subtree, _, err = replay(h, ch, membus.LayoutSubtree, false, cfg.Accesses, cfg.Seed); err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// Table renders Figure 11.
func (r *Fig11Result) Table() *Table {
	t := &Table{
		Title:  "Figure 11: hierarchical ORAM latency on DRAM (cycles per access)",
		Header: []string{"config", "channels", "naive", "subtree", "theoretical", "naive/theory", "subtree/theory"},
		Note:   fmt.Sprintf("working set %d blocks; DDR3 micron timing, FR-FCFS controller", r.Config.WorkingSet),
	}
	for _, p := range r.Points {
		t.AddRow(p.Setting, fmt.Sprintf("%d", p.Channels),
			f1(p.Naive), f1(p.Subtree), f1(p.Theoretical),
			f2(p.Naive/p.Theoretical), f2(p.Subtree/p.Theoretical))
	}
	return t
}

// Find returns the point for (setting, channels).
func (r *Fig11Result) Find(name string, channels int) *Fig11Point {
	for i := range r.Points {
		if r.Points[i].Setting == name && r.Points[i].Channels == channels {
			return &r.Points[i]
		}
	}
	return nil
}

// Fig5Result compares the two hierarchical access orders (Figure 5).
type Fig5Result struct {
	Setting                     string
	Channels                    int
	SeqReturn, SeqFinish        float64
	PipelinedReturn, PipeFinish float64
}

// RunFig5 measures sequential (per-ORAM read+write) vs pipelined
// (read-all-then-write-all) ordering for one setting under the subtree
// layout.
func RunFig5(set Setting, wsBlocks uint64, channels, accesses int, seed int64) (*Fig5Result, error) {
	h, err := set.Hierarchy(wsBlocks)
	if err != nil {
		return nil, err
	}
	sr, sf, _, err := replay(h, channels, membus.LayoutSubtree, true, accesses, seed)
	if err != nil {
		return nil, err
	}
	pr, pf, _, err := replay(h, channels, membus.LayoutSubtree, false, accesses, seed)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{
		Setting: set.Name, Channels: channels,
		SeqReturn: sr, SeqFinish: sf,
		PipelinedReturn: pr, PipeFinish: pf,
	}, nil
}

// Table renders the Figure 5 comparison.
func (r *Fig5Result) Table() *Table {
	t := &Table{
		Title:  "Figure 5: hierarchical access ordering (DRAM cycles)",
		Header: []string{"order", "return data", "finish access"},
		Note:   fmt.Sprintf("%s, %d channel(s); pipelined = read all paths, then write all paths", r.Setting, r.Channels),
	}
	t.AddRow("sequential (a)", f1(r.SeqReturn), f1(r.SeqFinish))
	t.AddRow("pipelined (b)", f1(r.PipelinedReturn), f1(r.PipeFinish))
	return t
}

// Table2Config parameterizes the Table 2 reproduction.
type Table2Config struct {
	WorkingSet uint64
	Channels   int
	Settings   []Setting
	Accesses   int
	// DecryptCPUCycles is the per-hierarchy-level decryption latency in
	// CPU cycles (the paper's H x latency_decryption term).
	DecryptCPUCycles uint64
	// CPUPerDRAM is the clock ratio (the paper assumes 4x).
	CPUPerDRAM uint64
	Stash      int
	Seed       int64
}

// DefaultTable2 returns the paper's Table 2 setup.
func DefaultTable2() Table2Config {
	return Table2Config{
		WorkingSet:       1 << 25,
		Channels:         4,
		Settings:         []Setting{BaseORAM, DZ3Pb32, DZ4Pb32},
		Accesses:         64,
		DecryptCPUCycles: 84,
		CPUPerDRAM:       4,
		Stash:            200,
		Seed:             17,
	}
}

// Table2Row is one configuration's latency and storage summary.
type Table2Row struct {
	Setting       string
	NumORAMs      int
	ReturnCycles  uint64 // CPU cycles
	FinishCycles  uint64
	StashKB       float64
	PositionMapKB float64
}

// Table2Result holds the rows.
type Table2Result struct {
	Config Table2Config
	Rows   []Table2Row
}

// RunTable2 computes latencyCPU = CPUPerDRAM x latencyDRAM + H x decrypt
// (Section 4.3) with subtree placement, plus the on-chip storage columns.
func RunTable2(cfg Table2Config) (*Table2Result, error) {
	res := &Table2Result{Config: cfg}
	for _, set := range cfg.Settings {
		h, err := set.Hierarchy(cfg.WorkingSet)
		if err != nil {
			return nil, err
		}
		r, f, _, err := replay(h, cfg.Channels, set.Layout, set.SequentialOrder, cfg.Accesses, cfg.Seed)
		if err != nil {
			return nil, err
		}
		hn := uint64(h.NumORAMs())
		res.Rows = append(res.Rows, Table2Row{
			Setting:       set.Name,
			NumORAMs:      h.NumORAMs(),
			ReturnCycles:  uint64(r)*cfg.CPUPerDRAM + hn*cfg.DecryptCPUCycles,
			FinishCycles:  uint64(f)*cfg.CPUPerDRAM + hn*cfg.DecryptCPUCycles,
			StashKB:       float64(h.StashBits(cfg.Stash)) / 8 / 1024,
			PositionMapKB: float64(h.OnChipPosMapBits) / 8 / 1024,
		})
	}
	return res, nil
}

// Table renders Table 2.
func (r *Table2Result) Table() *Table {
	t := &Table{
		Title:  "Table 2: Path ORAM latency and on-chip storage",
		Header: []string{"config", "H", "return data (cyc)", "finish access (cyc)", "stash KB", "posmap KB"},
		Note: fmt.Sprintf("%d channels, CPU at %dx DDR3 clock, %d CPU cycles decrypt/level",
			r.Config.Channels, r.Config.CPUPerDRAM, r.Config.DecryptCPUCycles),
	}
	for _, row := range r.Rows {
		t.AddRow(row.Setting, fmt.Sprintf("%d", row.NumORAMs),
			fmt.Sprintf("%d", row.ReturnCycles), fmt.Sprintf("%d", row.FinishCycles),
			f1(row.StashKB), f1(row.PositionMapKB))
	}
	return t
}

// Find returns the row for a named setting.
func (r *Table2Result) Find(name string) *Table2Row {
	for i := range r.Rows {
		if r.Rows[i].Setting == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// Table2Latency returns the return and finish latencies, in CPU cycles, of
// Table 2's DZ3Pb32 row: the ORAM main memory of every processor-model run
// that is not a Figure 12 setting (trace replay, the exclusive ablation,
// the simulator benchmark).
func Table2Latency() (ret, finish uint64, err error) {
	cfg := DefaultTable2()
	cfg.Settings = []Setting{DZ3Pb32}
	t2, err := RunTable2(cfg)
	if err != nil {
		return 0, 0, err
	}
	return t2.Rows[0].ReturnCycles, t2.Rows[0].FinishCycles, nil
}
