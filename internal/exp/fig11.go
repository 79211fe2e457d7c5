package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/dram"
	"repro/internal/placement"
	"repro/internal/treemath"
)

// hierSim lays a sized hierarchy out in DRAM and replays whole hierarchical
// ORAM accesses as request streams, reproducing the Figure 11 methodology.
type hierSim struct {
	levels  []analysis.ORAMConfig
	trees   []treemath.Tree
	mappers []placement.Mapper
	sys     *dram.System
	rng     *rand.Rand
	reqBuf  []uint64
}

// newHierSim builds the DRAM image of a hierarchy under one placement
// strategy ("naive" or "subtree").
func newHierSim(h analysis.Hierarchy, channels int, strategy string, seed int64) (*hierSim, error) {
	sys, err := dram.New(dram.MicronGeometry(channels), dram.DDR3Micron())
	if err != nil {
		return nil, err
	}
	g := sys.Geometry()
	nodeBytes := g.RowBytes * g.Channels
	s := &hierSim{sys: sys, rng: rand.New(rand.NewSource(seed))}
	var base uint64
	for _, lv := range h.Levels {
		tree := treemath.New(lv.LeafLevel)
		var m placement.Mapper
		switch strategy {
		case "naive":
			m = placement.NewNaive(tree, lv.BucketBytes(), base)
		case "subtree":
			sm, err := placement.NewSubtree(tree, lv.BucketBytes(), nodeBytes, base)
			if err != nil {
				return nil, err
			}
			m = sm
		default:
			return nil, fmt.Errorf("exp: unknown placement strategy %q", strategy)
		}
		s.levels = append(s.levels, lv)
		s.trees = append(s.trees, tree)
		s.mappers = append(s.mappers, m)
		// Next region, aligned to the aggregate row span.
		base += (m.Size() + uint64(nodeBytes) - 1) / uint64(nodeBytes) * uint64(nodeBytes)
	}
	return s, nil
}

// access simulates one full hierarchical access starting at cycle `at`
// using the pipelined ordering of Figure 5(b): read every ORAM's path
// (smallest ORAM first, data ORAM last), then write every path back.
// It returns when the data ORAM's path read completed (return data) and
// when the last write completed (finish access).
func (s *hierSim) access(at uint64) (dataReadDone, finish uint64) {
	g := uint64(s.sys.Geometry().AccessBytes)
	leaves := make([]uint64, len(s.levels))
	var readsDone uint64
	for h := len(s.levels) - 1; h >= 0; h-- {
		leaves[h] = s.rng.Uint64() % s.trees[h].NumLeaves()
		var done uint64
		for _, bucketBase := range s.pathAddrs(h, leaves[h]) {
			for off := uint64(0); off < uint64(s.levels[h].BucketBytes()); off += g {
				if d := s.sys.Access(at, bucketBase+off, false); d > done {
					done = d
				}
			}
		}
		if h == 0 {
			dataReadDone = done
		}
		if done > readsDone {
			readsDone = done
		}
	}
	finish = readsDone
	for h := len(s.levels) - 1; h >= 0; h-- {
		for _, bucketBase := range s.pathAddrs(h, leaves[h]) {
			for off := uint64(0); off < uint64(s.levels[h].BucketBytes()); off += g {
				if d := s.sys.Access(readsDone, bucketBase+off, true); d > finish {
					finish = d
				}
			}
		}
	}
	return dataReadDone, finish
}

// accessSequential replays the naive ordering of Figure 5(a): each ORAM is
// fully read and written before the next ORAM starts.
func (s *hierSim) accessSequential(at uint64) (dataReadDone, finish uint64) {
	g := uint64(s.sys.Geometry().AccessBytes)
	t := at
	for h := len(s.levels) - 1; h >= 0; h-- {
		leaf := s.rng.Uint64() % s.trees[h].NumLeaves()
		var readDone uint64
		for _, bucketBase := range s.pathAddrs(h, leaf) {
			for off := uint64(0); off < uint64(s.levels[h].BucketBytes()); off += g {
				if d := s.sys.Access(t, bucketBase+off, false); d > readDone {
					readDone = d
				}
			}
		}
		if h == 0 {
			dataReadDone = readDone
		}
		var writeDone uint64
		for _, bucketBase := range s.pathAddrs(h, leaf) {
			for off := uint64(0); off < uint64(s.levels[h].BucketBytes()); off += g {
				if d := s.sys.Access(readDone, bucketBase+off, true); d > writeDone {
					writeDone = d
				}
			}
		}
		t = writeDone
	}
	return dataReadDone, t
}

func (s *hierSim) pathAddrs(level int, leaf uint64) []uint64 {
	s.reqBuf = s.mappers[level].PathAddrs(leaf, s.reqBuf[:0])
	return s.reqBuf
}

// measure runs n back-to-back accesses and returns mean return-data and
// finish latencies in DRAM cycles.
func (s *hierSim) measure(n int, sequential bool) (meanReturn, meanFinish float64) {
	var at uint64
	var sumR, sumF float64
	for i := 0; i < n; i++ {
		var r, f uint64
		if sequential {
			r, f = s.accessSequential(at)
		} else {
			r, f = s.access(at)
		}
		sumR += float64(r - at)
		sumF += float64(f - at)
		at = f
	}
	return sumR / float64(n), sumF / float64(n)
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
			for _, strat := range []string{"naive", "subtree"} {
				sim, err := newHierSim(h, ch, strat, cfg.Seed)
				if err != nil {
					return nil, err
				}
				r, f := sim.measure(cfg.Accesses, false)
				if strat == "naive" {
					pt.Naive, pt.NaiveReturn = f, r
				} else {
					pt.Subtree, pt.SubtreeReturn = f, r
				}
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
		Note:   fmt.Sprintf("working set %d blocks; DDR3 micron timing", r.Config.WorkingSet),
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
// (read-all-then-write-all) ordering for one setting.
func RunFig5(set Setting, wsBlocks uint64, channels, accesses int, seed int64) (*Fig5Result, error) {
	h, err := set.Hierarchy(wsBlocks)
	if err != nil {
		return nil, err
	}
	seqSim, err := newHierSim(h, channels, "subtree", seed)
	if err != nil {
		return nil, err
	}
	sr, sf := seqSim.measure(accesses, true)
	pipeSim, err := newHierSim(h, channels, "subtree", seed)
	if err != nil {
		return nil, err
	}
	pr, pf := pipeSim.measure(accesses, false)
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
		sim, err := newHierSim(h, cfg.Channels, set.PlacementStrategy(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		r, f := sim.measure(cfg.Accesses, set.SequentialOrder)
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
