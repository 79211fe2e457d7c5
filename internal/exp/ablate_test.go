package exp

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/explore"
	"repro/internal/membus"
	"repro/internal/trace"
)

func TestSuperBlockAblation(t *testing.T) {
	// 2^11 blocks: the largest size at which every |S| is still feasible at
	// the paper's stash, so the monotonicity below compares measured rates.
	cells := measure(t, explore.SuperBlockGrid(1<<11), 1<<13, 41)
	res, err := RunSuperBlockAblation(cells)
	if err != nil {
		t.Fatal(err)
	}
	find := func(z, s int) *SuperBlockAblationRow {
		for i := range res.Rows {
			if res.Rows[i].DataZ == z && res.Rows[i].Size == s {
				return &res.Rows[i]
			}
		}
		return nil
	}
	// |S|=2 at Z=4 must be a clear win on a streaming workload
	// (the paper's chosen Figure 12 configuration).
	z4s2 := find(4, 2)
	if z4s2 == nil || z4s2.NetSpeedup <= 1.1 {
		t.Errorf("DZ4 |S|=2 speedup %v, want > 1.1", z4s2)
	}
	if z4s2.MissRatio > 0.65 {
		t.Errorf("DZ4 |S|=2 miss ratio %.2f, want ~0.5", z4s2.MissRatio)
	}
	// Dummy rate must be monotone in |S| for fixed Z.
	for _, z := range []int{3, 4} {
		prev := -1.0
		for _, s := range []int{1, 2, 4} {
			row := find(z, s)
			if row == nil {
				t.Fatalf("missing row Z=%d S=%d", z, s)
			}
			if row.DummyRate < prev {
				t.Errorf("Z=%d: dummy rate not monotone in |S|", z)
			}
			prev = row.DummyRate
		}
	}
	_ = res.Table().String()

	// An infeasible cell (as |S| = 4 at Z=3 is from 2^12 blocks up) stays a
	// row, with an unbounded dummy rate and no processor-side numbers.
	stuck := cells[2]
	stuck.Row.Metrics = map[string]float64{"infeasible": 1}
	res, err = RunSuperBlockAblation([]Cell{stuck})
	if err != nil || !math.IsInf(res.Rows[0].DummyRate, 1) || res.Rows[0].NetSpeedup != 0 {
		t.Errorf("infeasible cell rendered as %+v (%v)", res, err)
	}
}

func TestExclusiveAblation(t *testing.T) {
	cfg := DefaultExclusiveAblation()
	cfg.Benchmarks = []string{"mcf", "hmmer"}
	cfg.Instructions = 400_000
	cfg.Warmup = 400_000
	res, err := RunExclusiveAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.InclusivePenalty < 0.999 {
			t.Errorf("%s: inclusive faster than exclusive (%.3f)?", row.Benchmark, row.InclusivePenalty)
		}
	}
	// mcf writes enough to show a real penalty.
	if res.Rows[0].Benchmark != "mcf" || res.Rows[0].InclusivePenalty < 1.02 {
		t.Errorf("mcf inclusive penalty %.3f, want > 1.02", res.Rows[0].InclusivePenalty)
	}
	_ = res.Table().String()
}

// TestExclusiveAblationOnTable2 holds the ablation's ORAM memory to Table
// 2's DZ3Pb32 row: its exclusive run must match a processor run at that
// row's latencies cycle for cycle.
func TestExclusiveAblationOnTable2(t *testing.T) {
	t2, err := RunTable2(DefaultTable2())
	if err != nil {
		t.Fatal(err)
	}
	row := t2.Find("DZ3Pb32")
	cfg := DefaultExclusiveAblation()
	cfg.Benchmarks = []string{"mcf"}
	cfg.Instructions, cfg.Warmup = 100_000, 100_000
	res, err := RunExclusiveAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mem := &cpu.ORAMMemory{ReturnLat: row.ReturnCycles, FinishLat: row.FinishCycles}
	want, err := cpu.RunWithWarmup(cpu.Default(), trace.ProfileByName("mcf").Generator(cfg.Seed), mem, cfg.Warmup, cfg.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0].ExclusiveCycles; got != want.Cycles {
		t.Errorf("exclusive mcf ran %d cycles, %d at Table 2's DZ3Pb32 latencies %d/%d",
			got, want.Cycles, row.ReturnCycles, row.FinishCycles)
	}
}

func TestEncryptionAblation(t *testing.T) {
	res := RunEncryptionAblation(1 << 20)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row.StrawmanBucket < row.CounterBucket {
			t.Errorf("Z=%d: strawman bucket %d smaller than counter %d",
				row.Z, row.StrawmanBucket, row.CounterBucket)
		}
		if row.StrawmanOH < row.CounterOH {
			t.Errorf("Z=%d: strawman overhead below counter", row.Z)
		}
	}
	// At large Z the padding can no longer hide the 16B/block premium.
	last := res.Rows[len(res.Rows)-1]
	if last.StrawmanBucket == last.CounterBucket {
		t.Errorf("Z=%d buckets identical; expected strawman premium", last.Z)
	}
	_ = res.Table().String()
}

func TestStashAblationMonotone(t *testing.T) {
	res, err := RunStashAblation(measure(t, explore.StashGrid(1<<12), 1<<13, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Setting.Name != "DZ3Pb32+SB" || len(res.Stashes) != 5 || res.Stashes[0] != 120 {
		t.Fatalf("stash grid rendered as %s over %v", res.Setting.Name, res.Stashes)
	}
	for i := 1; i < len(res.Rates); i++ {
		if res.Rates[i] > res.Rates[i-1]+1e-9 {
			t.Errorf("dummy rate not non-increasing in C: %v", res.Rates)
		}
	}
	for i := 1; i < len(res.StashKBs); i++ {
		if res.StashKBs[i] <= res.StashKBs[i-1] {
			t.Errorf("stash KB not increasing in C: %v", res.StashKBs)
		}
	}
	_ = res.Table().String()
}

func TestDRAMChannelScaling(t *testing.T) {
	res, err := RunFig11(Fig11Config{WorkingSet: 1 << 20, Channels: []int{1, 2, 4},
		Settings: []Setting{DZ3Pb32}, Accesses: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points
	for i := 1; i < len(p); i++ {
		if p[i].Subtree >= p[i-1].Subtree {
			t.Errorf("latency not decreasing with channels: %.1f -> %.1f", p[i-1].Subtree, p[i].Subtree)
		}
	}
	// Efficiency (ratio to theory) degrades as channels grow — the
	// Section 4.2 "keep all channels busy" challenge.
	first := p[0].Subtree / p[0].Theoretical
	last := p[len(p)-1].Subtree / p[len(p)-1].Theoretical
	if last < first {
		t.Errorf("channel efficiency improved with more channels (%.2f -> %.2f)?", first, last)
	}
	if math.IsNaN(first) || math.IsNaN(last) {
		t.Error("NaN ratios")
	}
	_ = res.Table().String()
}

func TestSettingOrderingAndPlacement(t *testing.T) {
	if BaseORAM.Layout != membus.LayoutNaive || !BaseORAM.SequentialOrder {
		t.Error("baseORAM must predate the placement and ordering optimizations")
	}
	if DZ3Pb32.Layout != membus.LayoutSubtree || DZ3Pb32.SequentialOrder {
		t.Error("optimized settings must use subtree placement and pipelined order")
	}
}
