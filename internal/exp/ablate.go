package exp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cpu"
	"repro/internal/explore"
	"repro/internal/trace"
)

// This file contains ablation studies beyond the paper's printed figures,
// isolating the design decisions the paper argues for qualitatively:
// super-block size (Section 3.2 fixes |S|=2), the exclusive-ORAM interface
// (Section 3.3.1), the counter-based encryption (Section 2.2.2), and the
// stash-capacity choice C=200 (Section 4.1.2).

// SuperBlockAblationRow is one (Z, |S|) measurement.
type SuperBlockAblationRow struct {
	DataZ     int
	Size      int
	DummyRate float64
	// MissRatio is the L2 miss ratio on a spatially local workload
	// relative to the first |S| measured at the same Z (the prefetch
	// benefit side of the trade-off).
	MissRatio float64
	// NetSpeedup is the wall-clock ratio vs that same baseline on that
	// workload, including the dummy-rate occupancy penalty.
	NetSpeedup float64
}

// SuperBlockAblationResult holds the sweep.
type SuperBlockAblationResult struct {
	Rows []SuperBlockAblationRow
}

// RunSuperBlockAblation joins, for each cell of the ablate-superblock
// grid, the measured dummy-rate cost (protocol side) with the miss and
// runtime benefit on a streaming workload (processor side).
func RunSuperBlockAblation(cells []Cell) (*SuperBlockAblationResult, error) {
	res := &SuperBlockAblationResult{}
	prof := trace.Profile{
		Name: "stream", MemFrac: 0.3, StoreFrac: 0.3,
		SeqFrac: 0.3, StackFrac: 0.4, WorkingSet: 256 << 20,
	}
	coreCfg := cpu.Default()
	type baseline struct{ misses, cycles float64 }
	bases := map[int]baseline{}
	for _, c := range cells {
		row := SuperBlockAblationRow{DataZ: c.Spec.Z, Size: max(1, c.Spec.SuperBlockSize), DummyRate: c.DummyRate()}
		if c.Infeasible() {
			// Background eviction cannot keep up: the configuration
			// is infeasible (effective Z below 1).
			res.Rows = append(res.Rows, row)
			continue
		}
		// Processor side: super blocks of size s prefetch the s-line
		// group; the CPU model supports pairs, so model larger sizes
		// as pairs plus the measured dummy rate (documented
		// approximation; the protocol side above is exact).
		mem := &cpu.ORAMMemory{
			ReturnLat: 1900, FinishLat: 3500,
			DummyRate:  row.DummyRate,
			SuperBlock: row.Size > 1,
		}
		r, err := cpu.RunWithWarmup(coreCfg, prof.Generator(48), mem, 100_000, 200_000)
		if err != nil {
			return nil, err
		}
		base, ok := bases[row.DataZ]
		if !ok {
			base = baseline{float64(r.L2Misses), float64(r.Cycles)}
			bases[row.DataZ] = base
		}
		row.MissRatio = float64(r.L2Misses) / base.misses
		row.NetSpeedup = base.cycles / float64(r.Cycles)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the super-block ablation.
func (r *SuperBlockAblationResult) Table() *Table {
	t := &Table{
		Title:  "Ablation: static super-block size (Section 3.2)",
		Header: []string{"config", "|S|", "dummy rate", "L2 miss ratio", "net speedup"},
		Note:   "streaming workload; miss ratio and speedup relative to |S|=1 at the same Z",
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("DZ%d", row.DataZ), fmt.Sprintf("%d", row.Size),
			f3(row.DummyRate), f2(row.MissRatio), f2(row.NetSpeedup))
	}
	return t
}

// ExclusiveAblationConfig compares the exclusive interface against an
// inclusive baseline, both on Table 2's DZ3Pb32 latencies (Table2Latency).
type ExclusiveAblationConfig struct {
	Benchmarks   []string
	Instructions uint64
	Warmup       uint64
	Seed         int64
}

// DefaultExclusiveAblation uses write-heavy benchmarks where the inclusive
// design pays for dirty write-backs. Windows are long enough for the 1 MB
// L2 to reach eviction steady state even under streaming.
func DefaultExclusiveAblation() ExclusiveAblationConfig {
	return ExclusiveAblationConfig{
		Benchmarks:   []string{"bzip2", "libquantum", "mcf", "hmmer"},
		Instructions: 1_500_000,
		Warmup:       1_000_000,
		Seed:         43,
	}
}

// ExclusiveAblationRow is one benchmark's comparison.
type ExclusiveAblationRow struct {
	Benchmark        string
	ExclusiveCycles  uint64
	InclusiveCycles  uint64
	InclusivePenalty float64 // inclusive / exclusive
}

// ExclusiveAblationResult holds the comparison.
type ExclusiveAblationResult struct {
	Config ExclusiveAblationConfig
	Rows   []ExclusiveAblationRow
}

// RunExclusiveAblation runs each benchmark under both write-back policies.
func RunExclusiveAblation(cfg ExclusiveAblationConfig) (*ExclusiveAblationResult, error) {
	res := &ExclusiveAblationResult{Config: cfg}
	ret, finish, err := Table2Latency()
	if err != nil {
		return nil, err
	}
	coreCfg := cpu.Default()
	for _, name := range cfg.Benchmarks {
		prof := trace.ProfileByName(name)
		if prof == nil {
			return nil, fmt.Errorf("exp: unknown benchmark %q", name)
		}
		var cycles [2]uint64
		for i, inclusive := range []bool{false, true} {
			mem := &cpu.ORAMMemory{
				ReturnLat: ret, FinishLat: finish,
				InclusiveWriteback: inclusive,
			}
			r, err := cpu.RunWithWarmup(coreCfg, prof.Generator(cfg.Seed), mem, cfg.Warmup, cfg.Instructions)
			if err != nil {
				return nil, err
			}
			cycles[i] = r.Cycles
		}
		res.Rows = append(res.Rows, ExclusiveAblationRow{
			Benchmark:        name,
			ExclusiveCycles:  cycles[0],
			InclusiveCycles:  cycles[1],
			InclusivePenalty: float64(cycles[1]) / float64(cycles[0]),
		})
	}
	return res, nil
}

// Table renders the exclusive-vs-inclusive ablation.
func (r *ExclusiveAblationResult) Table() *Table {
	t := &Table{
		Title:  "Ablation: exclusive vs inclusive ORAM (Section 3.3.1)",
		Header: []string{"benchmark", "exclusive cycles", "inclusive cycles", "inclusive penalty"},
		Note:   "inclusive ORAM pays a full path access per dirty LLC eviction",
	}
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark,
			fmt.Sprintf("%d", row.ExclusiveCycles),
			fmt.Sprintf("%d", row.InclusiveCycles),
			f2(row.InclusivePenalty))
	}
	return t
}

// EncryptionAblationRow compares bucket footprints per scheme analytically.
type EncryptionAblationRow struct {
	Z              int
	CounterBucket  int
	StrawmanBucket int
	CounterOH      float64 // access overhead, no dummies
	StrawmanOH     float64
}

// EncryptionAblationResult holds the Section 2.2 comparison.
type EncryptionAblationResult struct {
	LeafLevel int
	Rows      []EncryptionAblationRow
}

// RunEncryptionAblation evaluates the counter-vs-strawman bucket sizes at a
// representative data-ORAM shape (the 2Z overhead factor of Section 2.2.2).
func RunEncryptionAblation(wsBlocks uint64) *EncryptionAblationResult {
	res := &EncryptionAblationResult{}
	for _, z := range []int{1, 2, 3, 4, 8} {
		l, valid := explore.TreeFor(wsBlocks, 0.5, z)
		res.LeafLevel = l
		ctr := analysis.ORAMConfig{LeafLevel: l, Z: z, BlockBytes: 128,
			ValidBlocks: valid, Scheme: analysis.SchemeCounter}
		straw := ctr
		straw.Scheme = analysis.SchemeStrawman
		res.Rows = append(res.Rows, EncryptionAblationRow{
			Z:              z,
			CounterBucket:  ctr.BucketBytes(),
			StrawmanBucket: straw.BucketBytes(),
			CounterOH:      ctr.AccessOverhead(0),
			StrawmanOH:     straw.AccessOverhead(0),
		})
	}
	return res
}

// Table renders the encryption ablation.
func (r *EncryptionAblationResult) Table() *Table {
	t := &Table{
		Title:  "Ablation: randomized encryption schemes (Section 2.2)",
		Header: []string{"Z", "counter bucket B", "strawman bucket B", "counter overhead", "strawman overhead"},
		Note:   "counter scheme adds 64 bits per bucket; strawman adds 128 bits per block (2Z more)",
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Z),
			fmt.Sprintf("%d", row.CounterBucket), fmt.Sprintf("%d", row.StrawmanBucket),
			f1(row.CounterOH), f1(row.StrawmanOH))
	}
	return t
}

// StashAblationResult sweeps stash capacity C for one hierarchy setting.
type StashAblationResult struct {
	Setting  Setting
	Stashes  []int
	Rates    []float64
	StashKBs []float64
}

// RunStashAblation joins the ablate-stash grid's measured dummy rates
// with the on-chip cost of each capacity at paper scale (complementing
// Figure 7 at the hierarchy level).
func RunStashAblation(cells []Cell) (*StashAblationResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("exp: stash ablation over no cells")
	}
	res := &StashAblationResult{Setting: settingOf(cells[0].Spec)}
	h, err := res.Setting.Hierarchy(PaperWorkingSet)
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		res.Stashes = append(res.Stashes, c.Spec.StashCapacity)
		res.Rates = append(res.Rates, c.DummyRate())
		res.StashKBs = append(res.StashKBs, float64(h.StashBits(c.Spec.StashCapacity))/8/1024)
	}
	return res, nil
}

// Table renders the stash ablation.
func (r *StashAblationResult) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: stash capacity (%s)", r.Setting.Name),
		Header: []string{"C (blocks)", "dummy rate", "on-chip stash KB (paper scale)"},
		Note:   "the paper picks C=200 (Section 4.1.2)",
	}
	for i, c := range r.Stashes {
		t.AddRow(fmt.Sprintf("%d", c), f3(r.Rates[i]), f1(r.StashKBs[i]))
	}
	return t
}
